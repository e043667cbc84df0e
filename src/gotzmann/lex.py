"""Lex orders, lex segments, minimal shadow growth, and Gotzmann verification.

A variable order is a permutation of 0..n-1 with position 0 the greatest
variable; the identity order is a > b > c > ...  A space is Gotzmann when its
shadow is as small as the shadow of the lex segment of the same dimension,
which is the minimum possible.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .classify import _supernova_stages
from .core import (
    POLY,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    RingContext,
    _close_up,
    _mask_level_bitsets,
    _restore,
    _space_from_basis,
    all_monomials,
    component_dim,
    gen_masks,
    iter_bits,
    mask_bitset,
    minimalize,
    poly_hilbert_from_sqf,
    poly_ring,
    reflavor,
    shadow_up,
    sqf_hilbert,
    upper_shadow,
)


def lex_segment(dim: int, d: int, ctx: RingContext, order=None) -> MonomialSpace:
    """The first dim degree-d monomials of the ring in the given order."""
    if type(d) is not int:
        raise ValueError(f"degree must be an int, got {d!r}")
    if type(dim) is not int:
        raise ValueError(f"dimension must be an int, got {dim!r}")
    mons = all_monomials(ctx, d, order)
    if not 0 <= dim <= len(mons):
        raise ValueError(f"dimension {dim} out of range 0..{len(mons)}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return _space_from_basis(ctx, d, frozenset(mons[:dim]))


def is_lex_segment(V: MonomialSpace, order=None) -> bool:
    mons = all_monomials(V.ctx, V.degree, order)
    return V.basis == frozenset(mons[:V.dim])


def is_lex_some_order(V: MonomialSpace):
    """The lexicographically smallest variable order making V a lex segment, or None.

    Under an order with greatest variable x, the degree-d listing is the
    x-multiples, in the order of their quotients by x, followed by the listing
    of the degree-d monomials without x.  So V is lex with x greatest exactly
    when either (a) x divides every element and V/x is lex one degree down,
    or (b) V holds every x-multiple and the rest of V is lex without x.  In R
    the quotient lives without x; in S x stays in it, still the greatest.

    The search recurses on these two cases, trying the greatest variable in
    ascending index order; a residual that is empty or full is lex in every
    order and takes the remaining variables ascending.  The first order found
    is therefore the smallest witness, and zero-dimensional and full spaces
    get the identity order.  Residuals that failed are remembered for the
    call, so relabelings that reach the same residual are searched once.
    """
    squarefree = V.ctx.flavor == SQF
    # each monomial packed into an int, the exponent of x_v in bits
    # [width * v, width * (v + 1)); in R the packing is the mask itself
    if squarefree:
        width, basis = 1, V.basis
    else:
        width = V.degree.bit_length()
        basis = frozenset(sum(e << width * v for v, e in enumerate(m)) for m in V.basis)
    flavor = V.ctx.flavor
    failed: set = set()

    def after(basis: frozenset, x: int, rest: tuple, d: int):
        """The smallest order of rest that makes basis lex below the greatest x, or None."""
        unit = 1 << width * x
        field = unit * ((1 << width) - 1)
        while basis and len(basis) < component_dim(len(rest) + 1, flavor, d):
            hit = [m for m in basis if m & field]
            if len(hit) == len(basis):  # (a)
                basis = frozenset(m - unit for m in basis)
                d -= 1
                if squarefree:
                    return search(basis, rest, d)
            elif len(hit) == component_dim(len(rest) + (not squarefree), flavor, d - 1):  # (b)
                return search(basis.difference(hit), rest, d)
            else:
                return None
        return rest

    def search(basis: frozenset, free: tuple, d: int):
        """The smallest order of the free variables that makes basis lex, or None."""
        if not basis or len(basis) == component_dim(len(free), flavor, d):
            return free
        if (basis, free) in failed:
            return None
        for x in free:
            tail = after(basis, x, tuple(v for v in free if v != x), d)
            if tail is not None:
                return (x,) + tail
        failed.add((basis, free))
        return None

    return search(basis, tuple(range(V.ctx.n)), V.degree)


# ---------------------------------------------------------------------------
# minimal growth: the Macaulay (S) and Kruskal-Katona (R) bounds in closed form

def macaulay_rep(m: int, d: int) -> tuple[tuple[int, int], ...]:
    """Greedy representation m = C(a_d,d) + C(a_{d-1},d-1) + ... with a_i strictly decreasing."""
    if type(m) is not int:
        raise ValueError(f"count must be an int, got {m!r}")
    if type(d) is not int:
        raise ValueError(f"degree must be an int, got {d!r}")
    if m < 0 or d < 1:
        raise ValueError("need m >= 0 and d >= 1")
    terms = []
    rest = m
    i = d
    while rest > 0 and i >= 1:
        a = i - 1
        while comb(a + 1, i) <= rest:
            a += 1
        terms.append((a, i))
        rest -= comb(a, i)
        i -= 1
    if rest:
        raise InvariantViolation(f"greedy representation of {m} failed")
    return tuple(terms)


def minimal_growth(dim: int, d: int, ctx: RingContext) -> int:
    """Smallest possible shadow dimension over all degree-d spaces of dimension dim.

    The lex segment attains it, and its shadow size has a closed form.  Write
    the codimension c = dim_d - dim in its d-th Macaulay representation
    sum C(a_i, i); the complement of the shadow then has dimension
    sum C(a_i + 1, i + 1) in S (Macaulay) and sum C(a_i, i + 1) in R
    (Kruskal-Katona).  In degree 0 the shadow of the unit is every variable.

    The value is read from _growth_bound, a bounded memo keyed by type too,
    so 2.0 never reads the entry of 2; a bad dim or d raises on every call.
    """
    return _growth_bound(dim, d, ctx.n, ctx.flavor)


@lru_cache(maxsize=4096, typed=True)
def _growth_bound(dim: int, d: int, n: int, flavor: str) -> int:
    """minimal_growth on the ring with n variables and the given flavor.

    The persistence-cut walk asks for a few hundred keys millions of times
    at n = 6, so a few thousand entries hold them all.  Only misses check.
    """
    if type(d) is not int:
        raise ValueError(f"degree must be an int, got {d!r}")
    if type(dim) is not int:
        raise ValueError(f"dimension must be an int, got {dim!r}")
    total = component_dim(n, flavor, d)
    if not 0 <= dim <= total:
        raise ValueError(f"dimension {dim} out of range 0..{total}")
    if d == 0:
        return n * dim
    shift = 0 if flavor == SQF else 1
    rep = macaulay_rep(total - dim, d)
    return component_dim(n, flavor, d + 1) - sum(comb(a + shift, i + 1) for a, i in rep)


def is_gotzmann_space(V: MonomialSpace) -> bool:
    """Whether the shadow of V is as small as Kruskal-Katona (R) or Macaulay (S) allows.

    Only the shadow's size is compared.  In R it is the popcount of the
    squarefree shadow of V's bitset, so no shadow space is built; in S it is
    the dimension of shadow_up(V).
    """
    ctx = V.ctx
    if ctx.flavor == SQF:
        grown = upper_shadow(mask_bitset(V.basis), ctx.n).bit_count()
    else:
        grown = shadow_up(V).dim
    return grown == minimal_growth(V.dim, V.degree, ctx)


def _grows_at(counts, shadow: int, d: int, ctx: RingContext) -> bool:
    """Whether the degree-d piece of a squarefree ideal grows minimally.

    counts[k] is the number of squarefree degree-k monomials of the ideal,
    for every k <= d at least, and shadow is the size of the squarefree
    shadow of its degree-d piece: the squarefree degree-(d+1) monomials of
    the ideal generated in degrees <= d.  In R that shadow is the grown
    piece; in S both dimensions come from squarefree counts through
    poly_hilbert_from_sqf, so S_d is never listed.
    """
    if ctx.flavor == SQF:
        dim_d, grown = counts[d], shadow
    else:
        dim_d = poly_hilbert_from_sqf(counts, d)
        grown = poly_hilbert_from_sqf(counts[:d + 1] + [shadow], d + 1)
    return grown == minimal_growth(dim_d, d, ctx)


def _grows_minimally(bits: int, gens: int, ctx: RingContext) -> bool:
    """Whether a squarefree up-set grows minimally in every degree.

    bits is a bitset over the 2^n masks that contains its own shadow, the
    squarefree monomials of an ideal, and gens its minimal elements.  A mask
    of bits of degree d + 1 outside gens is x_j times one of degree d, so the
    shadow of the degree-d piece has counts[d + 1] - |gens & levels[d + 1]|
    masks and none is taken.  By persistence (Gotzmann in S,
    Aramova-Herzog-Hibi in R) _grows_at tests the degrees from the lowest to
    the highest generator degree, so levels are counted to one above it; an
    up-set with no generators, the zero ideal, passes.
    """
    levels = _mask_level_bitsets(ctx.n)[0] + (0,)  # 0: the level above degree n
    tested = [d for d, level in enumerate(levels) if gens & level]
    if not tested:
        return True
    counts = [(bits & level).bit_count() for level in levels[:tested[-1] + 2]]
    return all(_grows_at(counts, counts[d + 1] - (gens & levels[d + 1]).bit_count(), d, ctx)
               for d in range(tested[0], tested[-1] + 1))


def is_gotzmann_ideal(I: MonomialIdeal) -> bool:
    """Whether every component of the ideal has minimal shadow growth.

    A squarefree ideal of S is decided by the paper's structure theorem: it
    is Gotzmann exactly when it has a supernova form.  A squarefree ideal of
    R is read by _grows_minimally off level counts of its up-set and of the
    bitset of its generator masks, with no shadow taken.  An ideal I of S
    with a square is J S, J the ideal of its generators in the variables that
    divide one; J is grown piece by piece, each the shadow of the one below
    plus the generators of its degree, over the degrees persistence leaves,
    and I_d is the sum over j of J_j times the free monomials of degree d - j.
    """
    ctx = I.ctx
    if I.squarefree:
        if ctx.flavor == POLY:
            return I.is_unit or _supernova_stages(gen_masks(I)) is not None
        gens = mask_bitset(gen_masks(I))
        return _grows_minimally(_close_up(gens, ctx.n), gens, ctx)
    degs = I.degrees()
    used = list(iter_bits(I.support_mask))
    # dim I_d = sum_j dims[j] * frees[d - j], dims[j] = dim J_j of J in the used variables
    frees = [component_dim(ctx.n - len(used), POLY, k) for k in range(degs[-1] + 2)]
    dims, piece = [0] * degs[0], frozenset()
    for d in range(degs[0], degs[-1] + 1):
        piece = piece.union(tuple(e[i] for i in used) for e in I.gens if sum(e) == d)
        dims.append(len(piece))
        piece = shadow_up(_space_from_basis(poly_ring(len(used)), d, piece)).basis
        grown = sum(map(mul, reversed(dims + [len(piece)]), frees))
        if grown != minimal_growth(sum(map(mul, reversed(dims), frees)), d, ctx):
            return False
    return True


# ---------------------------------------------------------------------------
# lexification

def lexify_in_R(I: MonomialIdeal) -> MonomialIdeal:
    """The lex ideal of R with the same squarefree Hilbert function as I.

    By Kruskal-Katona, and since squarefree lex ideals have lex components,
    the shadow of the first v degree-d monomials is the first
    minimal_growth(v, d) of degree d + 1.  So the generators in degree d are
    the slice [g:v_d] of the listing, g the growth of v_{d-1}, and a count
    below g raises InvariantViolation.  No segment is built, and a degree
    that is all shadow (v_d = g) is not listed.  I must be squarefree.

    The slices already come in canonical order: the degrees rise, and the
    listing of each degree is descending lex, which on masks of R is the
    descending order of their exponent tuples.  Each slice lies outside the
    shadow of everything before it, so together they are an antichain, and
    minimalize keeps them as given: their keys already ascend, so no sort
    runs.
    """
    if not I.squarefree:
        raise ValueError("lexification needs a squarefree ideal")
    values = sqf_hilbert(I)
    rctx = reflavor(I.ctx, SQF)
    gens = []
    for d, v in enumerate(values):
        g = minimal_growth(values[d - 1], d - 1, rctx) if d else 0
        if v < g:
            raise InvariantViolation(f"degree {d} does not contain the shadow of degree {d - 1}")
        if v > g:
            gens += all_monomials(rctx, d)[g:v]
    return minimalize(gens, rctx)


def sqf_lexify_in_S(I: MonomialIdeal) -> MonomialIdeal:
    """The squarefree lexification: the S-ideal on the same generators as lexify_in_R.

    The lex ideal of R, already built, is a canonical antichain of S as
    well, so its gens and masks go to S as they stand, the same objects: no
    exponent tuple is made again.
    """
    L = lexify_in_R(I)
    return _restore(MonomialIdeal, (reflavor(L.ctx, POLY), L.gens, L._masks))
