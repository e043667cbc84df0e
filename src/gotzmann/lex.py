"""Lex orders, lex segments, minimal shadow growth, and Gotzmann verification.

A variable order is a permutation of 0..n-1 with position 0 the greatest
variable; the identity order is a > b > c > ...  A space is Gotzmann when its
shadow is as small as the shadow of the lex segment of the same dimension,
which is the minimum possible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
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
    degree_of,
    iter_bits,
    minimalize,
    mask_to_exps,
    poly_hilbert_from_sqf,
    reflavor,
    shadow_up,
    sqf_degree_table,
    sqf_hilbert,
    unit_ideal,
)

SOME_ORDER_MAX_VARS = 8


def identity_order(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _check_order(order, n: int) -> tuple[int, ...]:
    perm = tuple(order)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"order {perm} is not a permutation of 0..{n - 1}")
    return perm


def lex_key(m, n: int, order=None):
    """Sort key under which ascending order is descending lex monomial order."""
    perm = identity_order(n) if order is None else _check_order(order, n)
    if isinstance(m, int):
        rank = {v: k for k, v in enumerate(perm)}
        return tuple(sorted(rank[i] for i in iter_bits(m)))
    return tuple(-m[v] for v in perm)


def lex_compare(u, v, order=None) -> int:
    """Graded lex comparison: +1 if u is greater, -1 if smaller, 0 if equal.

    u is greater when, at the greatest variable where the exponents differ,
    u has the larger exponent.  Unequal degrees are an error.
    """
    if isinstance(u, int) != isinstance(v, int):
        raise ValueError("cannot compare monomials of different representations")
    if degree_of(u) != degree_of(v):
        raise ValueError("lex comparison requires equal degrees")
    if order is not None:
        n = len(tuple(order))
    else:
        n = max(u.bit_length(), v.bit_length()) if isinstance(u, int) else len(u)
    ku, kv = lex_key(u, n, order), lex_key(v, n, order)
    return (ku < kv) - (ku > kv)


@lru_cache(maxsize=None)
def _sorted_monomials(n: int, flavor: str, d: int, perm: tuple) -> tuple:
    """Degree-d monomials in descending lex order under a non-identity permutation."""
    if flavor == SQF:
        return tuple(sum(1 << perm[k] for k in combo)
                     for combo in combinations(range(n), d))
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for k in combo:
            e[perm[k]] += 1
        out.append(tuple(e))
    return tuple(out)


def sorted_monomials(ctx: RingContext, d: int, order=None) -> tuple:
    perm = identity_order(ctx.n) if order is None else _check_order(order, ctx.n)
    if perm == identity_order(ctx.n):
        return _all_monomials(ctx.n, ctx.flavor, d)
    return _sorted_monomials(ctx.n, ctx.flavor, d, perm)


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
    """Search all variable orders for one making V a lex segment.

    Returns the lexicographically smallest witness permutation, or None.
    Zero-dimensional and full spaces are lex in the identity order.
    """
    n = V.ctx.n
    if n > SOME_ORDER_MAX_VARS:
        raise ValueError(f"order search is limited to {SOME_ORDER_MAX_VARS} variables")
    total = V.ctx.dim_component(V.degree)
    if V.dim in (0, total):
        return identity_order(n)
    for perm in permutations(range(n)):
        if is_lex_segment(V, perm):
            return perm
    return None


def is_lex_ideal(I: MonomialIdeal, order=None) -> bool:
    """Whether every component of the ideal is a lex segment (in flavor R)."""
    top = I.ctx.n if I.ctx.flavor == SQF else max(I.degrees(), default=0)
    return all(is_lex_segment(component_space(I, d), order) for d in range(top + 1))


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


def macaulay_value(rep) -> int:
    return sum(binom(a, i) for a, i in rep)


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
    for d in range(lo, hi + 1):
        # squarefree counts of the ideal generated in degrees <= d; R has no degree n + 1
        counts = [sum(row[:d + 1]) for row in table] + [0]
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
    n = I.ctx.n
    rctx = reflavor(I.ctx, SQF)
    if values[0]:
        return unit_ideal(rctx)
    gens: list[int] = []
    prev_shadow: frozenset = frozenset()
    for d in range(n + 1):
        seg = frozenset(sorted_monomials(rctx, d)[:values[d]])
        if not prev_shadow <= seg:
            raise InvariantViolation("lex segments do not nest into an ideal")
        gens.extend(seg - prev_shadow)
        prev_shadow = shadow_up(MonomialSpace(rctx, d, seg)).basis
    return minimalize([mask_to_exps(m, n) for m in gens], rctx)


def sqf_lexify_in_S(I: MonomialIdeal) -> MonomialIdeal:
    """The squarefree lexification: the S-ideal on the same generators as lexify_in_R."""
    L = lexify_in_R(I)
    return MonomialIdeal(reflavor(L.ctx, POLY), L.gens)
