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
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import attrgetter, itemgetter, le, lt, mul

POLY = "S"
SQF = "R"
MAX_VARS = 16
ALPHABET = "abcdefghijklmnop"


class InvariantViolation(Exception):
    """A structural fact the theory promises has failed to hold at runtime."""


_setattr = object.__setattr__


def _restore(cls, values):
    """A record with the given slot values, in the order of cls.__slots__, unchecked."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _setattr(obj, name, value)
    return obj


class _Record:
    """Base of the package's immutable values.

    A record stores its attributes in __slots__, and _fields names those that
    make up its value.  Its __init__ freezes a list or set it is given into a
    tuple or frozenset, and a monomial given as a sequence into a tuple; it
    validates, leaving the monomial rules to as_exps and minimalize, then
    sets each slot with object.__setattr__; assignment and deletion
    otherwise raise AttributeError.  Equality holds between records of one
    type with equal fields, the hash agrees with it, and the repr names the
    fields.  Copies and pickles keep every slot and run no checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the field values (one field: the value itself); an attrgetter is no
        # descriptor, so the record is passed to it explicitly
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = type(self)._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(type(self)._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _restore, (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def binom(a: int, b: int) -> int:
    """Binomial coefficient in exact integers, zero outside Pascal's triangle."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def component_dim(n: int, flavor: str, d: int) -> int:
    """Dimension of the degree-d component of the ring on n variables of the flavor."""
    if flavor == SQF:
        return binom(n, d)
    return binom(n + d - 1, d) if d else 1


def default_names(n: int) -> tuple[str, ...]:
    return tuple(ALPHABET[:n])


class RingContext(_Record):
    """Ambient ring data: variable count, printable names, and flavor S or R."""

    __slots__ = _fields = ("n", "flavor", "names")

    def __init__(self, n: int, flavor: str, names: tuple[str, ...]):
        names = tuple(names)
        if type(n) is not int:
            raise ValueError(f"variable count must be an int, got {n!r}")
        if not 0 <= n <= MAX_VARS:
            raise ValueError(f"variable count must be in 0..{MAX_VARS}, got {n}")
        if flavor not in (POLY, SQF):
            raise ValueError(f"flavor must be {POLY!r} or {SQF!r}, got {flavor!r}")
        if len(names) != n:
            raise ValueError("need exactly one name per variable")
        if len(set(names)) != n or not all(names):
            raise ValueError("variable names must be distinct and nonempty")
        _setattr(self, "n", n)
        _setattr(self, "flavor", flavor)
        _setattr(self, "names", names)

    def dim_component(self, d: int) -> int:
        """Dimension of the full degree-d component of the ring."""
        return component_dim(self.n, self.flavor, d)

    def name(self, i: int) -> str:
        return self.names[i]


@lru_cache(maxsize=2 * (MAX_VARS + 1), typed=True)
def _default_ring(n: int, flavor: str) -> RingContext:
    """The one shared context per (n, flavor) with default names; an invalid
    n, of any type, raises in RingContext and is not cached."""
    return RingContext(n, flavor, default_names(n) if type(n) is int else ())


def poly_ring(n: int, names=None) -> RingContext:
    """The polynomial ring; with default names the same shared context each time."""
    if names is None:
        return _default_ring(n, POLY)
    return RingContext(n, POLY, names)


def sqf_ring(n: int, names=None) -> RingContext:
    """The squarefree ring; with default names the same shared context each time."""
    if names is None:
        return _default_ring(n, SQF)
    return RingContext(n, SQF, names)


def reflavor(ctx: RingContext, flavor: str) -> RingContext:
    """The ring on the same variables in the given flavor; with default names
    the shared context of that size and flavor."""
    if ctx.names == default_names(ctx.n):
        return _default_ring(ctx.n, flavor)
    return RingContext(ctx.n, flavor, ctx.names)


# ---------------------------------------------------------------------------
# monomial helpers: masks for squarefree monomials, exponent tuples for S

def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _chunk(width: int, low: int, n: int) -> tuple:
    """For each value b of the width bits of a mask on n variables from bit
    low up: their exponent tuple, bit low + i at index i, repeated for the
    byte values that agree in those bits; and their share of the mask's
    canonical key (see _canonical_keys)."""
    exps, reversed_bits = [()], [0]  # grown a bit at a time: a new top bit reverses to bit 0
    for _ in range(width):
        exps = [e + (0,) for e in exps] + [e + (1,) for e in exps]
        reversed_bits = [r << 1 for r in reversed_bits] + [r << 1 | 1 for r in reversed_bits]
    full = (1 << width) - 1
    shift = n - low - width  # bit low + i of the mask reverses to bit n-1-low-i
    keys = tuple([(b.bit_count() << n | (full ^ r) << shift) << n | b << low
                  for b, r in enumerate(reversed_bits)])
    return tuple(exps) * (256 >> width), keys


@lru_cache(maxsize=MAX_VARS + 1)
def _tables(n: int) -> tuple[tuple, tuple]:
    """The mask encoding on n variables, built on first use: the (low, high)
    pairs of exponent tables and key tables of _chunk, low over the bits
    0..7 (all of them for n <= 8) and high over the bits 8..n-1 (an empty
    chunk for n <= 8).  Any other n raises ValueError.  The way back, tuple
    to mask, is support_of_exps."""
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in 0..{MAX_VARS}, got {n}")
    low = min(n, 8)
    return tuple(zip(_chunk(low, 0, n), _chunk(n - low, low, n)))


def mask_to_exps(mask: int, n: int) -> tuple[int, ...]:
    """Exponent tuple of the low n bits of a mask, bit i at index i.

    For n <= 8 one lookup in the exponent table of _tables(n), so every
    ideal on at most 8 variables shares one tuple object per monomial; up
    to MAX_VARS the low byte's tuple joined to that of the high bits; any
    other n raises ValueError.
    """
    low, high = _tables(n)[0]
    if n <= 8:
        return low[mask & 255]
    return low[mask & 255] + high[mask >> 8 & 255]


def _exps_of(masks, n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of a sequence of masks that fit in n variables, read
    off _tables(n) as mask_to_exps does: one table step each, unchecked.
    For n <= 8 one itemgetter call takes every step, given two masks or
    more: given one, it returns that mask's tuple bare."""
    low, high = _tables(n)[0]
    if n > 8:
        return tuple([low[m & 255] + high[m >> 8] for m in masks])
    if len(masks) > 1:
        return itemgetter(*masks)(low)
    return tuple([low[m] for m in masks])


def _canonical_keys(masks, n: int) -> list[int]:
    """The canonical key of each mask m that fits in n variables, one step
    in the key tables of _tables(n) each, unchecked:
    (popcount(m) << n | full ^ rev_n(m)) << n | m, where rev_n reverses the
    n low bits.  Keys ascend exactly as the canonical order does, rising
    degree and then descending exponent tuple, since rev_n makes x_0 the
    most significant bit of the part above m; distinct masks have distinct
    keys, and key & full gives m back."""
    low, high = _tables(n)[1]
    if n <= 8:
        return [low[m] for m in masks]
    return [low[m & 255] + high[m >> 8] for m in masks]


def _exps_tuple(m) -> tuple:
    """A monomial sequence as a tuple; anything else raises ValueError naming it."""
    try:
        return tuple(m)
    except TypeError:
        raise ValueError(f"monomial {m!r} is not an exponent sequence") from None


def exps_to_mask(exps) -> int:
    """Bit mask of a squarefree exponent tuple: as_exps, then the first
    exponent above one, then support_of_exps.  An exponent other than int 0
    or 1, or more than MAX_VARS of them, raises ValueError."""
    e = _exps_tuple(exps)
    e = as_exps(e, len(e))
    if len(e) > MAX_VARS:
        raise ValueError(f"variable count must be in 0..{MAX_VARS}, got {len(e)}")
    for i, x in enumerate(e):
        if x > 1:
            raise ValueError(f"monomial is not squarefree: exponent {x} at index {i}")
    return support_of_exps(e)


def as_exps(m, n: int) -> tuple[int, ...]:
    """Normalize a monomial of n variables to exponents: the one check, for
    every public constructor, that a value is a mask that fits or a sequence
    of n nonnegative ints; anything else raises ValueError.  An int means
    type int exactly, so a bool, which would be kept as given and print as
    True or False, is neither a mask nor an exponent."""
    if isinstance(m, int):
        if type(m) is not int:
            raise ValueError(f"mask {m!r} is a {type(m).__name__}, not an int")
        if m < 0 or m >> n:
            raise ValueError(f"mask {m} does not fit in {n} variables")
        return mask_to_exps(m, n)
    e = _exps_tuple(m)
    if len(e) != n or not all(type(x) is int and x >= 0 for x in e):
        raise ValueError(f"bad exponent tuple {e} for {n} variables")
    return e


def divides(u, v) -> bool:
    """Whether exponent tuple u divides exponent tuple v; masks are compared
    in bulk by the up-set kernel instead."""
    return all(map(le, u, v))


def support_of_exps(e) -> int:
    """The mask of the variables with a nonzero exponent: the one step from
    an exponent tuple to a mask."""
    mask = 0
    for i, x in enumerate(e):
        if x:
            mask |= 1 << i
    return mask


def ordered_monomials(n: int, flavor: str, d: int, variables) -> tuple:
    """All degree-d monomials in descending lexicographic order, variables[0] greatest."""
    if d < 0:
        return ()
    if flavor == SQF:
        return tuple(sum(1 << i for i in combo) for combo in combinations(variables, d))
    out = []
    for combo in combinations_with_replacement(variables, d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


@lru_cache(maxsize=(MAX_VARS + 1) * (MAX_VARS + 2) // 2)
def _all_monomials(n: int, d: int) -> tuple:
    """The identity-order listing of R_d; room for all 153 (n, d) with d <= n <= MAX_VARS."""
    return ordered_monomials(n, SQF, d, range(n))


def all_monomials(ctx: RingContext, d: int, order=None) -> tuple:
    """All degree-d monomials in descending lex order; order is a permutation of
    0..n-1, greatest variable first.  Only the identity listing of R in degrees
    0..n is cached, 2^MAX_VARS masks at most; a listing of S, whose size has no
    such bound, or in any other order is built afresh on each call."""
    n = ctx.n
    if order is not None:
        order = tuple(order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    if ctx.flavor == SQF and order in (None, tuple(range(n))):
        return _all_monomials(n, d) if 0 <= d <= n else ()
    return ordered_monomials(n, ctx.flavor, d, range(n) if order is None else order)


# ---------------------------------------------------------------------------
# graded monomial vector spaces

class MonomialSpace(_Record):
    """A degree-homogeneous set of monomials inside S_d or R_d.

    The basis is a frozenset of masks in R and of exponent tuples in S, each
    sequence stored as the tuple as_exps makes of it.  The constructor
    validates it: the representation matches the flavor, as_exps accepts
    each monomial, and each has the given degree.  Inside the package a
    space that is valid by construction is built by _space_from_basis
    instead, which skips these checks.
    """

    __slots__ = _fields = ("ctx", "degree", "basis")

    def __init__(self, ctx: RingContext, degree: int, basis: frozenset):
        basis = frozenset(m if isinstance(m, int) else _exps_tuple(m) for m in basis)
        if type(degree) is not int:
            raise ValueError(f"degree must be an int, got {degree!r}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        want_mask = ctx.flavor == SQF
        for m in basis:
            if want_mask != isinstance(m, int):
                raise ValueError("basis representation does not match ring flavor")
            if sum(as_exps(m, ctx.n)) != degree:
                raise ValueError(f"basis element {m} is not of degree {degree}")
        _setattr(self, "ctx", ctx)
        _setattr(self, "degree", degree)
        _setattr(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _space_from_basis(ctx: RingContext, degree: int, basis: frozenset) -> MonomialSpace:
    """The space with the given basis, which must already be a frozenset of
    degree-`degree` monomials of ctx in its flavor's representation.

    The counterpart of _ideal_from_antichain for spaces: none of the
    constructor's checks runs.  Each caller derives its basis from a valid
    space or ideal by an operation that stays in the ring and moves the
    degree as it says.
    """
    V = object.__new__(MonomialSpace)
    _setattr(V, "ctx", ctx)
    _setattr(V, "degree", degree)
    _setattr(V, "basis", basis)
    return V


def space(ctx: RingContext, degree: int, monomials) -> MonomialSpace:
    """Build a MonomialSpace, normalizing monomials to the flavor's representation."""
    if ctx.flavor == SQF:
        basis = frozenset(exps_to_mask(as_exps(m, ctx.n)) for m in monomials)
    else:
        basis = frozenset(as_exps(m, ctx.n) for m in monomials)
    return MonomialSpace(ctx, degree, basis)


def shadow_up(V: MonomialSpace) -> MonomialSpace:
    """The space of all variable multiples of V, one degree up.

    In flavor R products with a repeated variable vanish, so the shadow of the
    top degree is the zero space.
    """
    ctx = V.ctx
    if ctx.flavor == SQF:
        out = bitset_masks(upper_shadow(mask_bitset(V.basis), ctx.n))
    else:
        out = set()
        for m in V.basis:
            for i in range(ctx.n):
                out.add(m[:i] + (m[i] + 1,) + m[i + 1:])
    return _space_from_basis(ctx, V.degree + 1, frozenset(out))


# ---------------------------------------------------------------------------
# monomial ideals

class MonomialIdeal(_Record):
    """A monomial ideal given by its minimal (antichain) generating set.

    Generators are exponent tuples regardless of flavor.  The zero ideal has no
    generators; the unit ideal is generated by 1, the all-zero tuple.  When
    every generator is squarefree, construction records their bit masks, in
    the order of gens, and gen_masks and the squarefree properties read them.

    The constructor takes each generator as a tuple and calls minimalize,
    which raises on the first one that is no monomial of the ring; then it
    checks that they are distinct and exactly what minimalize makes of
    them, whose masks it records.  minimalize builds an ideal from monomials
    in any order; inside the package an antichain proven by construction is
    built by _ideal_from_antichain or _ideal_from_minimal, with no checks.
    The recorded masks are not part of the value: equality, hash and repr
    leave them out.
    """

    __slots__ = ("ctx", "gens", "_masks")
    _fields = ("ctx", "gens")

    def __init__(self, ctx: RingContext, gens: tuple):
        _setattr(self, "ctx", ctx)
        _setattr(self, "gens", tuple(map(_exps_tuple, gens)))
        self.__post_init__()

    def __post_init__(self):
        """The constructor's checks, and the mask record; a method of its own
        so that bench/tracer.py can time construction by wrapping it."""
        gens = self.gens
        minimal = minimalize(gens, self.ctx)
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct")
        # distinct generators, so minimalize drops one exactly when it is no antichain
        if len(minimal.gens) != len(gens):
            raise ValueError("generators must form a divisibility antichain")
        if minimal.gens != gens:
            raise ValueError("generators must be sorted canonically")
        _setattr(self, "_masks", minimal._masks)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def squarefree(self) -> bool:
        return self._masks is not None

    @property
    def support_mask(self) -> int:
        supports = self._masks if self._masks is not None else map(support_of_exps, self.gens)
        mask = 0
        for m in supports:
            mask |= m
        return mask

    def degrees(self) -> tuple[int, ...]:
        """The distinct generator degrees, ascending."""
        masks = self._masks
        degs = map(sum, self.gens) if masks is None else map(int.bit_count, masks)
        return tuple(sorted(set(degs)))

    def contains(self, m) -> bool:
        """Ideal membership of a monomial."""
        e = as_exps(m, self.ctx.n)
        return any(divides(g, e) for g in self.gens)


def gen_masks(I: MonomialIdeal) -> tuple[int, ...]:
    """Generators as bit masks, in the order of I.gens; requires a squarefree ideal.

    Reads the masks recorded when I was built; for an ideal with a generator
    that is not squarefree, exps_to_mask raises ValueError naming it.
    """
    if I._masks is None:
        return tuple(map(exps_to_mask, I.gens))
    return I._masks


_set_ctx, _set_gens, _set_masks = (getattr(MonomialIdeal, name).__set__
                                   for name in MonomialIdeal.__slots__)


def _ideal_from_antichain(masks, ctx: RingContext) -> MonomialIdeal:
    """The ideal generated by distinct masks that fit in ctx, form an antichain
    and come in canonical order: rising degree, then descending exponent tuple.

    No check runs and nothing is sorted: each caller knows its masks are a
    canonical antichain, for the reasons its docstring gives.
    """
    masks = tuple(masks)
    ideal = object.__new__(MonomialIdeal)
    _set_ctx(ideal, ctx)
    _set_gens(ideal, _exps_of(masks, ctx.n))
    _set_masks(ideal, masks)
    return ideal


def _ideal_from_minimal(masks, ctx: RingContext) -> MonomialIdeal:
    """The ideal generated by distinct masks that fit in ctx and form an
    antichain, in any order: one canonical key each orders them, with no sort
    when the keys already ascend, as for the masks of a checked MonomialIdeal
    or a slice of a listing."""
    keys = _canonical_keys(masks, ctx.n)
    if not all(map(lt, keys, keys[1:])):
        full = (1 << ctx.n) - 1
        masks = [key & full for key in sorted(keys)]
    return _ideal_from_antichain(masks, ctx)


def minimalize(monomials, ctx: RingContext) -> MonomialIdeal:
    """The divisibility antichain generating the same ideal as the given set.

    Accepts masks or exponent sequences in any mix; idempotent.  A value
    as_exps rejects, or in flavor R an exponent above one, raises ValueError
    naming the first bad monomial in input order.  The masks, and the
    supports of the tuples, set their bits in one bitset; closed upward, it
    is the up-set U of the squarefree monomials, and the minimal masks are U
    less its shadow, with no pairwise test.  A squarefree monomial divides a
    tuple exactly when it divides the tuple's support, so a tuple with a
    square is kept when its support is not in U and no tuple with a square
    kept before it, by rising degree, divides it.

    When every distinct mask is minimal, they go on in input order, so a
    canonical antichain needs no sort in _ideal_from_minimal; otherwise the
    minimal masks are read off U.  An ideal with a square is sorted here and
    records no masks.  No constructor check runs, since the constructor
    checks by calling minimalize.
    """
    n = ctx.n
    masks: dict[int, None] = {}  # insertion order: the input order, deduplicated
    supports: dict[tuple[int, ...], int] = {}  # each tuple with a square
    bits = 0
    for m in monomials:
        if type(m) is int:
            if m < 0 or m >> n:
                raise ValueError(f"mask {m} does not fit in {n} variables")
        else:
            e = as_exps(m, n)
            m = support_of_exps(e)
            if m.bit_count() != sum(e):
                if ctx.flavor == SQF:
                    raise ValueError(f"monomial {e} is not squarefree")
                supports[e] = m
                continue
        masks[m] = None
        bits |= 1 << m
    k = max(max(masks, default=0), max(supports.values(), default=0)).bit_length()
    up = _close_up(bits, k)
    squares: list[tuple[int, ...]] = []
    for e in sorted(supports, key=sum):
        if not up >> supports[e] & 1 and not any(divides(g, e) for g in squares):
            squares.append(e)
    minimal = up & ~upper_shadow(up, k)
    if minimal.bit_count() != len(masks):
        masks = bitset_masks(minimal)
    if squares:
        gens = sorted([*_exps_of(masks, n), *squares], key=lambda e: (-sum(e), e), reverse=True)
        return _restore(MonomialIdeal, (ctx, tuple(gens), None))
    return _ideal_from_minimal(masks, ctx)


def ideal_from_up_set(bits: int, ctx: RingContext) -> MonomialIdeal:
    """The squarefree ideal whose monomials are the masks of a bitset.

    The bitset must contain its own shadow, which is what makes it the set of
    monomials of an ideal; the masks outside that shadow are the minimal
    generators, already an antichain, so no filter runs again.  A bitset
    that misses part of its shadow raises InvariantViolation, naming the
    lowest degree of a gap, rather than being repaired; a mask that does not
    fit in n variables raises ValueError.
    """
    n = ctx.n
    shadow = upper_shadow(bits, n)
    gaps = shadow & ~bits
    if gaps:
        d = next(k for k, level in enumerate(_mask_level_bitsets(n)[0]) if gaps & level)
        raise InvariantViolation(
            f"degree {d} does not contain the shadow of degree {d - 1}")
    gens = bitset_masks(bits & ~shadow)
    if gens and gens[-1] >> n:
        bad = next(m for m in gens if m >> n)
        raise ValueError(f"mask {bad} does not fit in {n} variables")
    return _ideal_from_minimal(gens, ctx)


def zero_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ())


def unit_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ((0,) * ctx.n,))


def component_space(I: MonomialIdeal, d: int) -> MonomialSpace:
    """The degree-d piece of the ideal as a monomial vector space.

    In flavor R it is read off the up-set of the generators, and is zero
    above degree n; in S it filters the listing of S_d.
    """
    if type(d) is not int:
        raise ValueError(f"degree must be an int, got {d!r}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ctx = I.ctx
    if ctx.flavor == SQF:
        level = _mask_level_bitsets(ctx.n)[0][d] if d <= ctx.n else 0
        basis = bitset_masks(up_set(gen_masks(I), ctx.n) & level)
    else:
        basis = [m for m in all_monomials(ctx, d)
                 if any(divides(g, m) for g in I.gens)]
    return _space_from_basis(ctx, d, frozenset(basis))


@lru_cache(maxsize=MAX_VARS + 1)
def _mask_level_bitsets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the 2^n masks: levels[k] holds those of degree k and
    without[i] those not divisible by x_i, grown one variable at a time."""
    levels, without = [1], []
    for i in range(n):
        width = 1 << i
        levels = [a | (b << width) for a, b in zip(levels + [0], [0] + levels)]
        without = [w | (w << width) for w in without] + [(1 << width) - 1]
    return tuple(levels), tuple(without)


def mask_bitset(masks) -> int:
    """Bitset with bit m set for each of the given masks."""
    bits = 0
    for m in masks:
        bits |= 1 << m
    return bits


def up_set(masks, n: int) -> int:
    """Bitset over the 2^n masks of every squarefree multiple of the masks."""
    return _close_up(mask_bitset(masks), n)


def _close_up(bits: int, n: int) -> int:
    """The bitset over the 2^n masks closed upward: every squarefree multiple
    of a mask in it.

    One shift per variable, each closing the set under x_i.  Once a step has
    closed the set under x_i, later steps keep it closed, so one pass over the
    variables suffices.
    """
    for i, rest in enumerate(_mask_level_bitsets(n)[1]):
        bits |= (bits & rest) << (1 << i)
    return bits


def upper_shadow(bits: int, n: int) -> int:
    """Bitset of the squarefree shadow of a bitset: each m * x_j, x_j not dividing m.

    With lower_shadow, the one squarefree shadow loop in the package.
    """
    out = 0
    for i, rest in enumerate(_mask_level_bitsets(n)[1]):
        out |= (bits & rest) << (1 << i)
    return out


def lower_shadow(bits: int, n: int) -> int:
    """Bitset of the lower shadow of a bitset: each m / x_j, x_j dividing m.
    A mask without x_i shifted down by 2^i lands on one with x_i: rest drops it."""
    out = 0
    for i, rest in enumerate(_mask_level_bitsets(n)[1]):
        out |= (bits >> (1 << i)) & rest
    return out


def reflect_bitset(bits: int, n: int) -> int:
    """Move bit m to bit full ^ m, by reversing the 2^n-digit binary string."""
    return int(format(bits, f"0{1 << n}b")[::-1], 2)


def insert_variable_bitset(bits: int, n: int, i: int) -> int:
    """Bitset over the 2^(n+1) masks of a bitset over the 2^n masks, with a
    new variable adjoined at index i: each mask m moves to
    m & low | (m & ~low) << 1, low the bits below i, and none gains x_i.

    From the top variable down to x_i, the masks with x_j move up by 2^j,
    which carries that bit to x_{j+1}; one shift per variable, as in up_set.
    """
    without = _mask_level_bitsets(n + 1)[1]
    for j in range(n - 1, i - 1, -1):
        rest = without[j]
        bits = bits & rest | (bits & ~rest) << (1 << j)
    return bits


def bitset_masks(bits: int) -> list[int]:
    """The masks whose bits are set, ascending.

    One scan of the binary digits; clearing the low bit of a 2^n-bit integer
    once per mask, as iter_bits does, would cost a copy of it each time.
    """
    digits = format(bits, "b")[::-1]
    out = []
    m = digits.find("1")
    while m >= 0:
        out.append(m)
        m = digits.find("1", m + 1)
    return out


def sqf_hilbert(I: MonomialIdeal) -> tuple[int, ...]:
    """Counts of squarefree monomials in I per degree 0..n: the level counts of
    the up-set of its generators.  Requires a squarefree ideal."""
    n = I.ctx.n
    bits = up_set(gen_masks(I), n)
    return tuple((bits & level).bit_count() for level in _mask_level_bitsets(n)[0])


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
    return sum(map(mul, sqf[1:], _binom_row(d - 1)))


@lru_cache(maxsize=64)
def _binom_row(a: int) -> tuple[int, ...]:
    """C(a, j) for j = 0..MAX_VARS: a row of Pascal's triangle, as wide as
    any squarefree count list; one entry per row asked for, 64 at most."""
    return tuple(binom(a, j) for j in range(MAX_VARS + 1))


def q_context(ctx: RingContext, i: int) -> RingContext:
    """The ring of the same flavor with variable i removed.  The one check of
    a variable index: an int, of type int exactly, that names a variable of
    ctx; anything else raises ValueError."""
    if type(i) is not int:
        raise ValueError(f"variable index must be an int, got {i!r}")
    if not 0 <= i < ctx.n:
        raise ValueError(f"variable index {i} out of range")
    return RingContext(ctx.n - 1, ctx.flavor, ctx.names[:i] + ctx.names[i + 1:])
