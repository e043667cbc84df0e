"""Lex orders, lex segments, minimal shadow growth, and Gotzmann verification.

A variable order is a permutation of 0..n-1 with position 0 the greatest
variable; the identity order is a > b > c > ...  A space is Gotzmann when its
shadow is as small as the shadow of the lex segment of the same dimension,
which is the minimum possible.
"""

from __future__ import annotations

from math import comb

from .core import (
    POLY,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    RingContext,
    _all_monomials,
    binom,
    component_space,
    ideal_from_up_set,
    mask_bitset,
    ordered_monomials,
    poly_hilbert_from_sqf,
    reflavor,
    shadow_up,
    sqf_degree_table,
    sqf_hilbert,
    unit_ideal,
)


def identity_order(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _check_order(order, n: int) -> tuple[int, ...]:
    perm = tuple(order)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"order {perm} is not a permutation of 0..{n - 1}")
    return perm


def sorted_monomials(ctx: RingContext, d: int, order=None) -> tuple:
    perm = identity_order(ctx.n) if order is None else _check_order(order, ctx.n)
    if perm == identity_order(ctx.n):
        return _all_monomials(ctx.n, ctx.flavor, d)
    return ordered_monomials(ctx.n, ctx.flavor, d, perm)


def lex_segment(dim: int, d: int, ctx: RingContext, order=None) -> MonomialSpace:
    """The first dim degree-d monomials of the ring in the given order."""
    mons = sorted_monomials(ctx, d, order)
    if not 0 <= dim <= len(mons):
        raise ValueError(f"dimension {dim} out of range 0..{len(mons)}")
    return MonomialSpace(ctx, d, frozenset(mons[:dim]))


def is_lex_segment(V: MonomialSpace, order=None) -> bool:
    mons = sorted_monomials(V.ctx, V.degree, order)
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
    failed: set = set()

    def size(k: int, d: int) -> int:
        """The number of degree-d monomials on k variables."""
        if squarefree:
            return binom(k, d)
        return binom(k + d - 1, d) if d else 1

    def after(basis: frozenset, x: int, rest: tuple, d: int):
        """The smallest order of rest that makes basis lex below the greatest x, or None."""
        unit = 1 << width * x
        field = unit * ((1 << width) - 1)
        while basis and len(basis) < size(len(rest) + 1, d):
            hit = [m for m in basis if m & field]
            if len(hit) == len(basis):  # (a)
                basis = frozenset(m - unit for m in basis)
                d -= 1
                if squarefree:
                    return search(basis, rest, d)
            elif len(hit) == size(len(rest) + (not squarefree), d - 1):  # (b)
                return search(basis.difference(hit), rest, d)
            else:
                return None
        return rest

    def search(basis: frozenset, free: tuple, d: int):
        """The smallest order of the free variables that makes basis lex, or None."""
        if not basis or len(basis) == size(len(free), d):
            return free
        if (basis, free) in failed:
            return None
        for x in free:
            tail = after(basis, x, tuple(v for v in free if v != x), d)
            if tail is not None:
                return (x,) + tail
        failed.add((basis, free))
        return None

    return search(basis, identity_order(V.ctx.n), V.degree)


# ---------------------------------------------------------------------------
# minimal growth: the Macaulay (S) and Kruskal-Katona (R) bounds in closed form

def macaulay_rep(m: int, d: int) -> tuple[tuple[int, int], ...]:
    """Greedy representation m = C(a_d,d) + C(a_{d-1},d-1) + ... with a_i strictly decreasing."""
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
    """
    total = ctx.dim_component(d)
    if not 0 <= dim <= total:
        raise ValueError(f"dimension {dim} out of range 0..{total}")
    if d == 0:
        return ctx.n * dim
    shift = 0 if ctx.flavor == SQF else 1
    rep = macaulay_rep(total - dim, d)
    return ctx.dim_component(d + 1) - sum(comb(a + shift, i + 1) for a, i in rep)


def is_gotzmann_space(V: MonomialSpace) -> bool:
    return shadow_up(V).dim == minimal_growth(V.dim, V.degree, V.ctx)


def is_gotzmann_ideal(I: MonomialIdeal) -> bool:
    """Whether every component of the ideal has minimal shadow growth.

    By persistence it is enough to look at degrees between the smallest and
    largest generator degrees; all later components stay Gotzmann.  For
    squarefree ideals both dimensions come from one table of squarefree
    counts: in degree d only the generators of degree <= d matter, and in S
    the counts turn into dimensions through the Hilbert series substitution,
    avoiding materialization of S_d.
    """
    if I.is_zero:
        return True
    ctx = I.ctx
    degs = I.degrees()
    lo, hi = degs[0], degs[-1]
    if ctx.flavor == POLY and not I.squarefree:
        return all(is_gotzmann_space(component_space(I, d)) for d in range(lo, hi + 1))
    table = sqf_degree_table(I)
    # squarefree counts of the ideal generated in degrees <= d, carried from one
    # degree to the next; the columns below lo are zero and R has no degree n + 1
    counts = [0] * (len(table) + 1)
    for d in range(lo, hi + 1):
        for k, row in enumerate(table):
            counts[k] += row[d]
        if ctx.flavor == SQF:
            dim_d, grown = counts[d], counts[d + 1]
        else:
            dim_d = poly_hilbert_from_sqf(counts, d)
            grown = poly_hilbert_from_sqf(counts, d + 1)
        if grown != minimal_growth(dim_d, d, ctx):
            return False
    return True


# ---------------------------------------------------------------------------
# lexification

def lexify_in_R(I: MonomialIdeal) -> MonomialIdeal:
    """The lex ideal of R with the same squarefree Hilbert function as I.

    Built degreewise as lex segments; the segments are verified to nest under
    the shadow, which makes the result an ideal.
    """
    values = sqf_hilbert(I)
    rctx = reflavor(I.ctx, SQF)
    if values[0]:
        return unit_ideal(rctx)
    return ideal_from_up_set(mask_bitset(m for d, v in enumerate(values)
                                         for m in sorted_monomials(rctx, d)[:v]), rctx)


def sqf_lexify_in_S(I: MonomialIdeal) -> MonomialIdeal:
    """The squarefree lexification: the S-ideal on the same generators as lexify_in_R."""
    L = lexify_in_R(I)
    return MonomialIdeal(reflavor(L.ctx, POLY), L.gens)
