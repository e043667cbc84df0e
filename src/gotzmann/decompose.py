"""Variable decomposition, compression, reconstruction, and Alexander duality in R.

Fixing a variable x_i splits a monomial space V of the squarefree ring into
the part avoiding x_i and the part divisible by it, both living in the
squarefree ring Q on one variable fewer.  Compression replaces the two parts
by lex segments of the same dimensions; the Alexander dual of V collects the
complements-in-x of the monomials missing from V.
"""

from __future__ import annotations

from .core import (
    ALPHABET,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    RingContext,
    _mask_level_bitsets,
    _Record,
    _setattr,
    _space_from_basis,
    bitset_masks,
    gen_masks,
    ideal_from_up_set,
    insert_variable_bitset,
    lower_shadow,
    mask_bitset,
    q_context,
    reflect_bitset,
    up_set,
    upper_shadow,
)
from .lex import _grows_minimally, is_gotzmann_space, lex_segment, minimal_growth


def _require_sqf(ctx: RingContext):
    if ctx.flavor != SQF:
        raise ValueError("this operation lives in the squarefree ring")


class Decomposition(_Record):
    """V = vhat + x_i * vxi with both parts over the smaller ring Q."""

    __slots__ = _fields = ("i", "rctx", "vhat", "vxi")

    def __init__(self, i: int, rctx: RingContext, vhat: MonomialSpace, vxi: MonomialSpace):
        _setattr(self, "i", i)
        _setattr(self, "rctx", rctx)
        _setattr(self, "vhat", vhat)
        _setattr(self, "vxi", vxi)


def _count_with(basis, i: int) -> int:
    """How many of the masks x_i divides: the sum of m & 2^i, shifted down."""
    return sum(map((1 << i).__and__, basis)) >> i


def _split_ring(V: MonomialSpace, i: int) -> RingContext:
    """The ring Q without x_i, after the checks every x_i-split makes: R, a
    variable of the ring, degree at least one."""
    _require_sqf(V.ctx)
    q = q_context(V.ctx, i)
    if V.degree < 1:
        raise ValueError("decomposition needs degree at least one")
    return q


def decompose(V: MonomialSpace, i: int) -> Decomposition:
    """Split V by divisibility by x_i; parts are reindexed into Q, where the
    bits above i move one place down (x_i itself is dropped)."""
    q = _split_ring(V, i)
    low, bit = (1 << i) - 1, 1 << i
    hat = frozenset(m & low | m >> 1 & ~low for m in V.basis if not m & bit)
    xi = frozenset(m & low | m >> 1 & ~low for m in V.basis if m & bit)
    return Decomposition(i, V.ctx, _space_from_basis(q, V.degree, hat),
                         _space_from_basis(q, V.degree - 1, xi))


def _reassembled_basis(i: int, hat, xi) -> frozenset:
    """The basis of hat + x_i * xi, masks of Q, in the ring with x_i at index
    i: bits from i up move one place up, and each mask of xi gains x_i."""
    low, bit = (1 << i) - 1, 1 << i
    return frozenset([m & low | (m & ~low) << 1 for m in hat]
                     + [m & low | (m & ~low) << 1 | bit for m in xi])


def reassemble(dec: Decomposition) -> MonomialSpace:
    """Exact inverse of decompose.

    A Decomposition may come from a caller, with parts of any degree, so the
    result is validated: a vxi that is not one degree below vhat raises
    ValueError.  compress and reconstruct build parts that fit and reassemble
    them without the check.
    """
    return MonomialSpace(dec.rctx, dec.vhat.degree,
                         _reassembled_basis(dec.i, dec.vhat.basis, dec.vxi.basis))


def compress(V: MonomialSpace, i: int, order=None) -> MonomialSpace:
    """Replace both parts of the x_i-decomposition by lex segments in Q.

    The order permutes the remaining variables; by default the induced
    identity order is used, which keeps x_i conceptually last.  The shadow
    size of the result is the same for every order (see growth_equality).
    The parts are counted, not built: only their dimensions are needed.
    """
    q, b = _split_ring(V, i), _count_with(V.basis, i)
    hat = lex_segment(V.dim - b, V.degree, q, order)
    xi = lex_segment(b, V.degree - 1, q, order)
    return _space_from_basis(V.ctx, V.degree, _reassembled_basis(i, hat.basis, xi.basis))


class GrowthEquality(_Record):
    """Both sides of the shadow-size identity relating V to its compression."""

    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: int, rhs: int):
        _setattr(self, "lhs", lhs)
        _setattr(self, "rhs", rhs)

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def growth_equality(V: MonomialSpace, i: int) -> GrowthEquality:
    """Shadow size of V against the shadow size of its x_i-compression.

    Both sides are |m V| = |n vhat| + |vhat + n vxi|.  The left side is read
    directly, as the popcount of the shadow of V's bitset.  On the right the
    parts are lex segments of dimensions a and b; the shadow of one is the
    lex segment of dimension minimal_growth, and segments of one degree nest,
    so the sum is minimal_growth(a, d) + max(a, minimal_growth(b, d - 1)) for
    every order.  b is counted, and a = dim V - b.
    """
    q, b = _split_ring(V, i), _count_with(V.basis, i)
    d, a = V.degree, V.dim - b
    lhs = upper_shadow(mask_bitset(V.basis), V.ctx.n).bit_count()
    return GrowthEquality(lhs, minimal_growth(a, d, q) + max(a, minimal_growth(b, d - 1, q)))


def colon_with_n1(vhat: MonomialSpace) -> MonomialSpace:
    """Monomials one degree down whose every missing-variable multiple is in vhat."""
    _require_sqf(vhat.ctx)
    if vhat.degree < 1:
        raise ValueError("colon needs degree at least one")
    n = vhat.ctx.n
    d = vhat.degree
    levels = _mask_level_bitsets(n)[0]
    level_d, level_below = (levels[k] if k <= n else 0 for k in (d, d - 1))
    # m fails exactly when some m * x_j is missing, i.e. when m lies in the
    # lower shadow of the missing monomials
    blocked = lower_shadow(level_d & ~mask_bitset(vhat.basis), n)
    out = bitset_masks(level_below & ~blocked)
    return _space_from_basis(vhat.ctx, d - 1, frozenset(out))


# ---------------------------------------------------------------------------
# Alexander duality

def alexander_dual_space(V: MonomialSpace) -> MonomialSpace:
    """Span of x/m over the degree-d monomials m missing from V, in degree n-d.

    The full component dualizes to the zero space and vice versa; dual of
    dual gives V back.
    """
    _require_sqf(V.ctx)
    if V.degree > V.ctx.n:
        raise ValueError("duality needs a degree within the ring")
    n = V.ctx.n
    missing = _mask_level_bitsets(n)[0][V.degree] & ~mask_bitset(V.basis)
    return _space_from_basis(V.ctx, n - V.degree,
                             frozenset(bitset_masks(reflect_bitset(missing, n))))


def _dual_bitset(I: MonomialIdeal) -> int:
    """Bitset over the 2^n masks of the Alexander dual of the ideal.

    A squarefree x^t lies in the dual exactly when x^([n] - t) is not in I,
    so the dual is the complement of the up-set of I with bit m moved to
    bit full ^ m.
    """
    n = I.ctx.n
    everything = (1 << (1 << n)) - 1
    return reflect_bitset(everything ^ up_set(gen_masks(I), n), n)


def alexander_dual_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """Componentwise Alexander dual, as an ideal.

    Its degree-e component is the dual of the degree-(n - e) component of I.
    These components are required to be closed under the shadow; if they are
    not, the dual is not an ideal and ideal_from_up_set raises
    InvariantViolation rather than silently repairing anything.
    """
    _require_sqf(I.ctx)
    return ideal_from_up_set(_dual_bitset(I), I.ctx)


def is_gdual(V: MonomialSpace) -> bool:
    """Whether the Alexander dual of V is Gotzmann."""
    return is_gotzmann_space(alexander_dual_space(V))


def is_gdual_ideal(I: MonomialIdeal) -> bool:
    """Whether every componentwise Alexander dual of the ideal is Gotzmann.

    The dual of the degree-(n - k) component of I is the degree-k piece of
    the dual bitset, the reflected complement of an up-set and so an up-set:
    the monomials of alexander_dual_ideal(I).  So this is is_gotzmann_ideal
    of the dual.  An up-set contains its one shadow, which leaves out its
    generators, bits ^ shadow; lex._grows_minimally reads the rest off counts.
    """
    _require_sqf(I.ctx)
    bits = _dual_bitset(I)
    return _grows_minimally(bits, bits ^ upper_shadow(bits, I.ctx.n), I.ctx)


# ---------------------------------------------------------------------------
# choosing a variable and rebuilding Gotzmann spaces

def pick_variable(V: MonomialSpace) -> int:
    """Index i maximizing how many basis monomials x_i divides; ties go low."""
    if not V.basis:
        raise ValueError("cannot pick a variable of the zero space")
    if not V.ctx.n:
        raise ValueError("cannot pick a variable of a ring with no variables")
    return max(range(V.ctx.n), key=lambda i: _count_with(V.basis, i))


def reconstruct(vxi: MonomialSpace, i: int, name: str | None = None) -> MonomialSpace:
    """Rebuild (n_1 vxi) + x_i * vxi over the ring with x_i adjoined at index i.

    vxi must be Gotzmann in its ring; the rebuilt space is then Gotzmann one
    variable up, which is asserted.  One upper_shadow of vxi's bitset gives
    both its Kruskal-Katona test and n_1 vxi.  x_i is inserted by shifts on
    the two bitsets, insert_variable_bitset, and x_i * vxi is one more shift
    by 2^i; the rebuilt bitset's shadow is tested against the bound, and the
    basis is read off it once.  The new ring is made before any bitset over
    its masks, so a ring past MAX_VARS raises first.
    """
    _require_sqf(vxi.ctx)
    q = vxi.ctx
    if type(i) is not int:
        raise ValueError(f"insertion index must be an int, got {i!r}")
    if not 0 <= i <= q.n:
        raise ValueError(f"insertion index {i} out of range")
    bits = mask_bitset(vxi.basis)
    shadow = upper_shadow(bits, q.n)
    if shadow.bit_count() != minimal_growth(vxi.dim, vxi.degree, q):
        raise ValueError("reconstruction needs a Gotzmann space")
    if name is None:
        # None when the alphabet runs out; RingContext then rejects the ring size
        name = next((c for c in ALPHABET if c not in q.names), None)
    rctx = RingContext(q.n + 1, SQF, q.names[:i] + (name,) + q.names[i:])
    rebuilt = (insert_variable_bitset(shadow, q.n, i)
               | insert_variable_bitset(bits, q.n, i) << (1 << i))
    dim = rebuilt.bit_count()
    if upper_shadow(rebuilt, rctx.n).bit_count() != minimal_growth(dim, vxi.degree + 1, rctx):
        raise InvariantViolation("reconstruction produced a non-Gotzmann space")
    return _space_from_basis(rctx, vxi.degree + 1, frozenset(bitset_masks(rebuilt)))
