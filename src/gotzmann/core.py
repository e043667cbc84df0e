"""Monomial combinatorics shared by the polynomial ring and the squarefree ring.

The two ambient rings are S = k[x_1,...,x_n] and its quotient R by the squares
of all the variables, so in R any product with a repeated variable vanishes.
A squarefree monomial is stored as a bit mask over variable indices 0..n-1
(bit i set means x_i divides it); a general monomial of S is a tuple of n
exponents.  Only dimensions are ever counted, so no field is materialized.

Everything here is an immutable value and every operation is a pure function;
the module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

POLY = "S"
SQF = "R"
MAX_VARS = 16
ALPHABET = "abcdefghijklmnop"


class InvariantViolation(Exception):
    """A structural fact the theory promises has failed to hold at runtime."""


def binom(a: int, b: int) -> int:
    """Binomial coefficient in exact integers, zero outside Pascal's triangle."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def default_names(n: int) -> tuple[str, ...]:
    return tuple(ALPHABET[:n])


@dataclass(frozen=True)
class RingContext:
    """Ambient ring data: variable count, printable names, and flavor S or R."""

    n: int
    flavor: str
    names: tuple[str, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count must be in 0..{MAX_VARS}, got {self.n}")
        if self.flavor not in (POLY, SQF):
            raise ValueError(f"flavor must be {POLY!r} or {SQF!r}, got {self.flavor!r}")
        if len(self.names) != self.n:
            raise ValueError("need exactly one name per variable")
        if len(set(self.names)) != self.n or not all(self.names):
            raise ValueError("variable names must be distinct and nonempty")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def dim_component(self, d: int) -> int:
        """Dimension of the full degree-d component of the ring."""
        if d < 0:
            return 0
        if self.flavor == SQF:
            return binom(self.n, d)
        return binom(self.n + d - 1, d) if d > 0 else 1

    def name(self, i: int) -> str:
        return self.names[i]


def poly_ring(n: int, names=None) -> RingContext:
    return RingContext(n, POLY, tuple(names) if names is not None else default_names(n))


def sqf_ring(n: int, names=None) -> RingContext:
    return RingContext(n, SQF, tuple(names) if names is not None else default_names(n))


def reflavor(ctx: RingContext, flavor: str) -> RingContext:
    return RingContext(ctx.n, flavor, ctx.names)


# ---------------------------------------------------------------------------
# monomial helpers: masks for squarefree monomials, exponent tuples for S

def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_exps(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def exps_to_mask(exps) -> int:
    """Bit mask of a squarefree exponent tuple; rejects exponents above one."""
    mask = 0
    for i, e in enumerate(exps):
        if e > 1:
            raise ValueError(f"monomial is not squarefree: exponent {e} at index {i}")
        if e:
            mask |= 1 << i
    return mask


def as_exps(m, n: int) -> tuple[int, ...]:
    """Normalize a monomial given as mask or exponent tuple to exponents."""
    if isinstance(m, int):
        if m < 0 or m >> n:
            raise ValueError(f"mask {m} does not fit in {n} variables")
        return mask_to_exps(m, n)
    e = tuple(m)
    if len(e) != n or any(x < 0 for x in e):
        raise ValueError(f"bad exponent tuple {e} for {n} variables")
    return e


def as_mask(m, n: int) -> int:
    """Normalize a squarefree monomial given as mask or exponent tuple to a mask."""
    if isinstance(m, int):
        if m < 0 or m >> n:
            raise ValueError(f"mask {m} does not fit in {n} variables")
        return m
    return exps_to_mask(as_exps(m, n))


def degree_of(m) -> int:
    return m.bit_count() if isinstance(m, int) else sum(m)


def divides(u, v) -> bool:
    """Whether monomial u divides monomial v (both masks or both tuples)."""
    if isinstance(u, int):
        return u & v == u
    return all(a <= b for a, b in zip(u, v))


def is_squarefree_exps(e) -> bool:
    return all(x <= 1 for x in e)


def support_of_exps(e) -> int:
    mask = 0
    for i, x in enumerate(e):
        if x:
            mask |= 1 << i
    return mask


@lru_cache(maxsize=None)
def _all_monomials(n: int, flavor: str, d: int) -> tuple:
    """All degree-d monomials, in descending lexicographic order (x_0 greatest)."""
    if d < 0:
        return ()
    if flavor == SQF:
        return tuple(sum(1 << i for i in combo) for combo in combinations(range(n), d))
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


def all_monomials(ctx: RingContext, d: int) -> tuple:
    return _all_monomials(ctx.n, ctx.flavor, d)


# ---------------------------------------------------------------------------
# graded monomial vector spaces

@dataclass(frozen=True)
class MonomialSpace:
    """A degree-homogeneous set of monomials inside S_d or R_d."""

    ctx: RingContext
    degree: int
    basis: frozenset

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        want_mask = self.ctx.flavor == SQF
        for m in self.basis:
            if want_mask != isinstance(m, int):
                raise ValueError("basis representation does not match ring flavor")
            if degree_of(m) != self.degree:
                raise ValueError(f"basis element {m} is not of degree {self.degree}")
        if want_mask and len(self.basis) > binom(self.ctx.n, self.degree):
            raise ValueError("too many squarefree monomials for this degree")

    @property
    def dim(self) -> int:
        return len(self.basis)


def space(ctx: RingContext, degree: int, monomials) -> MonomialSpace:
    """Build a MonomialSpace, normalizing monomials to the flavor's representation."""
    if ctx.flavor == SQF:
        basis = frozenset(as_mask(m, ctx.n) for m in monomials)
    else:
        basis = frozenset(as_exps(m, ctx.n) for m in monomials)
    return MonomialSpace(ctx, degree, basis)


def full_space(ctx: RingContext, d: int) -> MonomialSpace:
    return MonomialSpace(ctx, d, frozenset(all_monomials(ctx, d)))


def shadow_up(V: MonomialSpace) -> MonomialSpace:
    """The space of all variable multiples of V, one degree up.

    In flavor R products with a repeated variable vanish, so the shadow of the
    top degree is the zero space.
    """
    ctx = V.ctx
    out = set()
    if ctx.flavor == SQF:
        full = ctx.full_mask
        for m in V.basis:
            free = full & ~m
            while free:
                low = free & -free
                out.add(m | low)
                free ^= low
    else:
        for m in V.basis:
            for i in range(ctx.n):
                out.add(m[:i] + (m[i] + 1,) + m[i + 1:])
    return MonomialSpace(ctx, V.degree + 1, frozenset(out))


# ---------------------------------------------------------------------------
# monomial ideals

def _gen_sort_key(e):
    return (sum(e), tuple(-x for x in e))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal (antichain) generating set.

    Generators are exponent tuples regardless of flavor.  The zero ideal has no
    generators; the unit ideal is generated by 1, the all-zero tuple.
    """

    ctx: RingContext
    gens: tuple

    def __post_init__(self):
        n = self.ctx.n
        for e in self.gens:
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad generator {e} for {n} variables")
            if self.ctx.flavor == SQF and not is_squarefree_exps(e):
                raise ValueError(f"generator {e} is not squarefree")
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("generators must be distinct")
        for g in self.gens:
            for h in self.gens:
                if g != h and divides(g, h):
                    raise ValueError("generators must form a divisibility antichain")
        if list(self.gens) != sorted(self.gens, key=_gen_sort_key):
            raise ValueError("generators must be sorted canonically")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def squarefree(self) -> bool:
        return all(is_squarefree_exps(e) for e in self.gens)

    @property
    def support_mask(self) -> int:
        mask = 0
        for e in self.gens:
            mask |= support_of_exps(e)
        return mask

    @property
    def has_linear_gen(self) -> bool:
        return any(sum(e) == 1 for e in self.gens)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({sum(e) for e in self.gens}))

    def contains(self, m) -> bool:
        """Ideal membership of a monomial."""
        e = as_exps(m, self.ctx.n)
        return any(divides(g, e) for g in self.gens)


def gen_masks(I: MonomialIdeal) -> tuple[int, ...]:
    """Generators as bit masks; requires a squarefree ideal."""
    return tuple(exps_to_mask(e) for e in I.gens)


def minimalize(monomials, ctx: RingContext) -> MonomialIdeal:
    """The divisibility antichain generating the same ideal as the given set.

    Accepts masks or exponent tuples in any mix; idempotent.  In flavor R any
    input with an exponent above one is rejected.
    """
    items = {as_exps(m, ctx.n) for m in monomials}
    if ctx.flavor == SQF:
        for e in items:
            if not is_squarefree_exps(e):
                raise ValueError(f"monomial {e} is not squarefree")
    minimal = [m for m in items
               if not any(g != m and divides(g, m) for g in items)]
    return MonomialIdeal(ctx, tuple(sorted(minimal, key=_gen_sort_key)))


def zero_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ())


def unit_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ((0,) * ctx.n,))


def ideal_from_masks(masks, ctx: RingContext) -> MonomialIdeal:
    return minimalize([mask_to_exps(m, ctx.n) for m in masks], ctx)


def component_space(I: MonomialIdeal, d: int) -> MonomialSpace:
    """The degree-d piece of the ideal as a monomial vector space.

    In flavor R only squarefree multiples of the generators exist.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ctx = I.ctx
    if ctx.flavor == SQF:
        gm = gen_masks(I)
        basis = [m for m in all_monomials(ctx, d) if any(g & m == g for g in gm)]
    else:
        basis = [m for m in all_monomials(ctx, d)
                 if any(divides(g, m) for g in I.gens)]
    return MonomialSpace(ctx, d, frozenset(basis))


def sqf_degree_table(I: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Squarefree monomials of I by their degree and their first generator degree.

    Entry [k][e] counts the squarefree degree-k monomials whose smallest
    dividing generator has degree e, so the prefix sums of row k count the
    degree-k monomials of the ideal generated in degrees <= e.  Requires a
    squarefree ideal.

    One pass over the generator degrees, rising: the up-set of the generators
    seen so far is a bitset over all 2^n masks (bit m set when the monomial
    with mask m is in it), closed upward by one shift per variable and
    counted per degree against the bitset of each level.
    """
    n = I.ctx.n
    by_degree: dict[int, list[int]] = {}
    for g in gen_masks(I):
        by_degree.setdefault(g.bit_count(), []).append(g)
    # levels[k]: the masks of degree k; without[i]: the masks not divisible by x_i.
    # Both grow one variable at a time, doubling the range of masks covered.
    levels, without = [1], []
    for i in range(n):
        width = 1 << i
        levels = [a | (b << width) for a, b in zip(levels + [0], [0] + levels)]
        without = [w | (w << width) for w in without] + [(1 << width) - 1]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    seen = [0] * (n + 1)
    up = 0
    for e in sorted(by_degree):
        for g in by_degree[e]:
            up |= 1 << g
        for i, rest in enumerate(without):
            up |= (up & rest) << (1 << i)
        for k, level in enumerate(levels):
            count = (up & level).bit_count()
            table[k][e] = count - seen[k]
            seen[k] = count
    return tuple(tuple(row) for row in table)


def sqf_hilbert(I: MonomialIdeal) -> tuple[int, ...]:
    """Counts of squarefree monomials in I per degree 0..n."""
    return tuple(sum(row) for row in sqf_degree_table(I))


def poly_hilbert_from_sqf(sqf, d: int) -> int:
    """Dimension of the degree-d piece in S from the squarefree counts.

    This is the coefficient extraction of substituting t/(1-t) into the
    squarefree Hilbert series; for squarefree ideals it equals the direct
    count of degree-d monomials of S in the ideal.
    """
    if d < 0:
        return 0
    if d == 0:
        return sqf[0]
    return sum(sqf[k] * binom(d - 1, k - 1) for k in range(1, len(sqf)))


def generator_counts(I: MonomialIdeal) -> dict[int, int]:
    """Number of minimal generators in each degree."""
    counts: dict[int, int] = {}
    for e in I.gens:
        d = sum(e)
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


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

    The result lives over a context with variable i removed; generators
    involving x_i map to zero and are dropped.
    """
    if not 0 <= i < I.ctx.n:
        raise ValueError(f"variable index {i} out of range")
    ctx = I.ctx
    small = RingContext(ctx.n - 1, ctx.flavor, ctx.names[:i] + ctx.names[i + 1:])
    kept = [e[:i] + e[i + 1:] for e in I.gens if e[i] == 0]
    return minimalize(kept, small)
