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
from operator import attrgetter

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
    make up its value.  Its __init__ validates and then sets each slot with
    object.__setattr__; assignment and deletion otherwise raise
    AttributeError.  Equality holds between records of one type with equal
    fields, the hash agrees with it, and the repr names the fields.  Copies
    and pickles keep every slot and run no checks.
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


def default_names(n: int) -> tuple[str, ...]:
    return tuple(ALPHABET[:n])


class RingContext(_Record):
    """Ambient ring data: variable count, printable names, and flavor S or R."""

    __slots__ = _fields = ("n", "flavor", "names")

    def __init__(self, n: int, flavor: str, names: tuple[str, ...]):
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


@lru_cache(maxsize=2 * (MAX_VARS + 1), typed=True)
def _default_ring(n: int, flavor: str) -> RingContext:
    """The one shared context per (n, flavor) with default names; an invalid
    n raises in RingContext and is not cached."""
    return RingContext(n, flavor, default_names(n))


def poly_ring(n: int, names=None) -> RingContext:
    """The polynomial ring; with default names the same shared context each time."""
    if names is None:
        return _default_ring(n, POLY)
    return RingContext(n, POLY, tuple(names))


def sqf_ring(n: int, names=None) -> RingContext:
    """The squarefree ring; with default names the same shared context each time."""
    if names is None:
        return _default_ring(n, SQF)
    return RingContext(n, SQF, tuple(names))


def reflavor(ctx: RingContext, flavor: str) -> RingContext:
    return RingContext(ctx.n, flavor, ctx.names)


# ---------------------------------------------------------------------------
# monomial helpers: masks for squarefree monomials, exponent tuples for S

def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the exponent tuple of each byte value, bit i at index i
_BYTE_EXPS = tuple(tuple(b >> i & 1 for i in range(8)) for b in range(256))


def mask_to_exps(mask: int, n: int) -> tuple[int, ...]:
    """Exponent tuple of the low n bits of a mask, bit i at index i.

    One slice of a byte table for n <= 8 and two joined slices up to MAX_VARS;
    any other n raises ValueError.
    """
    if 0 <= n <= 8:
        return _BYTE_EXPS[mask & 255][:n]
    if 8 < n <= MAX_VARS:
        return _BYTE_EXPS[mask & 255] + _BYTE_EXPS[mask >> 8 & 255][:n - 8]
    raise ValueError(f"variable count must be in 0..{MAX_VARS}, got {n}")


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


def ordered_monomials(n: int, flavor: str, d: int, variables) -> tuple:
    """All degree-d monomials in descending lexicographic order, variables[0] greatest.

    Built afresh on each call: only the identity listing is cached, in
    _all_monomials, so a process that sees many orders keeps no listing of them.
    """
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


@lru_cache(maxsize=None)
def _all_monomials(n: int, flavor: str, d: int) -> tuple:
    """The degree-d listing in the identity order, x_0 greatest; one entry per (n, flavor, d)."""
    return ordered_monomials(n, flavor, d, range(n))


def all_monomials(ctx: RingContext, d: int) -> tuple:
    return _all_monomials(ctx.n, ctx.flavor, d)


# ---------------------------------------------------------------------------
# graded monomial vector spaces

class MonomialSpace(_Record):
    """A degree-homogeneous set of monomials inside S_d or R_d."""

    __slots__ = _fields = ("ctx", "degree", "basis")

    def __init__(self, ctx: RingContext, degree: int, basis: frozenset):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        d, n = degree, ctx.n
        want_mask = ctx.flavor == SQF
        for m in basis:
            if want_mask != isinstance(m, int):
                raise ValueError("basis representation does not match ring flavor")
            if want_mask:
                if m < 0 or m >> n:
                    raise ValueError(f"mask {m} does not fit in {n} variables")
            elif len(m) != n or n and min(m) < 0:
                raise ValueError(f"bad exponent tuple {m} for {n} variables")
            if (m.bit_count() if want_mask else sum(m)) != d:
                raise ValueError(f"basis element {m} is not of degree {d}")
        _setattr(self, "ctx", ctx)
        _setattr(self, "degree", degree)
        _setattr(self, "basis", basis)

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
    return MonomialSpace(ctx, V.degree + 1, frozenset(out))


# ---------------------------------------------------------------------------
# monomial ideals

def _canonical_order(gens) -> list:
    """Generators by rising degree, then descending exponent tuple."""
    return sorted(sorted(gens, reverse=True), key=sum)


def _minimal_masks(masks) -> list[int]:
    """The masks that no other of the given distinct masks divides, by rising degree."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        for g in kept:
            if g & m == g:
                break
        else:
            kept.append(m)
    return kept


def _minimal_exps(exps) -> list[tuple[int, ...]]:
    """The exponent tuples that no other of the given distinct tuples divides, by rising degree."""
    kept: list[tuple[int, ...]] = []
    for e in sorted(exps, key=sum):
        if not any(divides(g, e) for g in kept):
            kept.append(e)
    return kept


class MonomialIdeal(_Record):
    """A monomial ideal given by its minimal (antichain) generating set.

    Generators are exponent tuples regardless of flavor.  The zero ideal has no
    generators; the unit ideal is generated by 1, the all-zero tuple.  When
    every generator is squarefree, construction records their bit masks, in
    the order of gens, and gen_masks and the squarefree properties read them.

    The constructor validates its input: generators in the ring, distinct, an
    antichain, in canonical order.  Inside the package a mask antichain that
    is already verified and already in canonical order is built by
    _ideal_from_antichain instead, which skips these checks and sorts
    nothing; minimalize is the way to build an ideal from unchecked
    monomials in any order.  The recorded masks are not part of the value:
    equality, hash and repr leave them out.
    """

    __slots__ = ("ctx", "gens", "_masks")
    _fields = ("ctx", "gens")

    def __init__(self, ctx: RingContext, gens: tuple):
        _setattr(self, "ctx", ctx)
        _setattr(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self):
        """The constructor's checks, and the mask record; a method of its own
        so that bench/tracer.py can time construction by wrapping it."""
        n = self.ctx.n
        gens = self.gens
        masks: list[int] | None = []
        for e in gens:
            if len(e) != n or n and min(e) < 0:
                raise ValueError(f"bad generator {e} for {n} variables")
            if masks is not None:
                try:
                    masks.append(exps_to_mask(e))
                except ValueError:  # an exponent above one
                    if self.ctx.flavor == SQF:
                        raise ValueError(f"generator {e} is not squarefree") from None
                    masks = None
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct")
        minimal = _minimal_exps(gens) if masks is None else _minimal_masks(masks)
        if len(minimal) != len(gens):
            raise ValueError("generators must form a divisibility antichain")
        if list(gens) != _canonical_order(gens):
            raise ValueError("generators must be sorted canonically")
        _setattr(self, "_masks", None if masks is None else tuple(masks))

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

    def _gen_degrees(self):
        """The degree of each generator, in the order of gens."""
        if self._masks is not None:
            return map(int.bit_count, self._masks)
        return map(sum, self.gens)

    @property
    def has_linear_gen(self) -> bool:
        return 1 in self._gen_degrees()

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._gen_degrees())))

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


def _record_ideal(ctx: RingContext, gens: tuple, masks: tuple) -> MonomialIdeal:
    """The ideal object on canonical generators and their masks, unchecked."""
    ideal = object.__new__(MonomialIdeal)
    _setattr(ideal, "ctx", ctx)
    _setattr(ideal, "gens", gens)
    _setattr(ideal, "_masks", masks)
    return ideal


def _ideal_from_antichain(masks, ctx: RingContext) -> MonomialIdeal:
    """The ideal generated by distinct masks that fit in ctx, form an antichain
    and come in canonical order: rising degree, then descending exponent tuple.

    Every ideal the package builds from a mask antichain it already holds in
    canonical order comes from here, and none of the constructor's checks
    runs again; nothing is sorted either.
    Each caller knows its masks are a canonical antichain, for the reasons
    its docstring gives: sqf_lexify_in_S reads them off an ideal already
    built, and the three counting routes (osp_to_ideal, enumerate_gotzmann,
    enumerate_antichains) build them as one, in order.  Each mask becomes its
    exponent tuple once, and the masks are recorded in the order of gens.
    """
    n = ctx.n
    masks = tuple(masks)
    return _record_ideal(ctx, tuple([mask_to_exps(m, n) for m in masks]), masks)


def minimalize(monomials, ctx: RingContext) -> MonomialIdeal:
    """The divisibility antichain generating the same ideal as the given set.

    Accepts masks or exponent tuples in any mix; idempotent.  In flavor R any
    input with an exponent above one is rejected, and the first bad monomial
    in input order is named.  Squarefree input is filtered once, as masks;
    only the survivors become exponent tuples, one keyed sort puts them in
    canonical order, and they are recorded unchecked, as _ideal_from_antichain
    records them.  Input of S with a square is filtered as exponent tuples
    and built by the validating constructor.
    """
    n = ctx.n
    masks: set[int] = set()
    exps: set[tuple[int, ...]] = set()
    for m in monomials:
        if isinstance(m, int):
            if m < 0 or m >> n:
                raise ValueError(f"mask {m} does not fit in {n} variables")
            masks.add(m)
            continue
        e = as_exps(m, n)
        if is_squarefree_exps(e):
            masks.add(exps_to_mask(e))
        elif ctx.flavor == SQF:
            raise ValueError(f"monomial {e} is not squarefree")
        else:
            exps.add(e)
    if exps:
        gens = _minimal_exps(exps | {mask_to_exps(m, n) for m in masks})
        return MonomialIdeal(ctx, tuple(_canonical_order(gens)))
    keyed = sorted([(-m.bit_count(), mask_to_exps(m, n), m) for m in _minimal_masks(masks)],
                   reverse=True)
    return _record_ideal(ctx, tuple([k[1] for k in keyed]), tuple([k[2] for k in keyed]))


def ideal_from_up_set(bits: int, ctx: RingContext) -> MonomialIdeal:
    """The squarefree ideal whose monomials are the masks of a bitset.

    The bitset must contain its own shadow, which is what makes it the set of
    monomials of an ideal; the masks outside that shadow are the minimal
    generators.  A bitset that misses part of its shadow raises
    InvariantViolation, naming the lowest degree of a gap, rather than being
    repaired.
    """
    n = ctx.n
    shadow = upper_shadow(bits, n)
    gaps = shadow & ~bits
    if gaps:
        d = next(k for k, level in enumerate(_mask_level_bitsets(n)[0]) if gaps & level)
        raise InvariantViolation(
            f"degree {d} does not contain the shadow of degree {d - 1}")
    return minimalize(bitset_masks(bits & ~shadow), ctx)


def zero_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ())


def unit_ideal(ctx: RingContext) -> MonomialIdeal:
    return MonomialIdeal(ctx, ((0,) * ctx.n,))


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
    """Bitset over the 2^n masks of every squarefree multiple of the masks.

    One shift per variable, each closing the set under x_i.  Once a step has
    closed the set under x_i, later steps keep it closed, so one pass over the
    variables suffices.
    """
    bits = mask_bitset(masks)
    for i, rest in enumerate(_mask_level_bitsets(n)[1]):
        bits |= (bits & rest) << (1 << i)
    return bits


def upper_shadow(bits: int, n: int) -> int:
    """Bitset of the squarefree shadow of a bitset: each m * x_j, x_j not dividing m.

    This is the one squarefree shadow loop in the package.
    """
    out = 0
    for i, rest in enumerate(_mask_level_bitsets(n)[1]):
        out |= (bits & rest) << (1 << i)
    return out


def reflect_bitset(bits: int, n: int) -> int:
    """Move bit m to bit full ^ m, by reversing the 2^n-digit binary string."""
    return int(format(bits, f"0{1 << n}b")[::-1], 2)


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
    return sum(sqf[k] * binom(d - 1, k - 1) for k in range(1, len(sqf)))


def q_context(ctx: RingContext, i: int) -> RingContext:
    """The ring of the same flavor with variable i removed."""
    if not 0 <= i < ctx.n:
        raise ValueError(f"variable index {i} out of range")
    return RingContext(ctx.n - 1, ctx.flavor, ctx.names[:i] + ctx.names[i + 1:])
