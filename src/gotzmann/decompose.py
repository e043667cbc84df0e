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
    all_monomials,
    bitset_masks,
    gen_masks,
    ideal_from_up_set,
    mask_bitset,
    q_context,
    reflect_bitset,
    shadow_up,
    up_set,
    upper_shadow,
)
from .lex import _grows_minimally, is_gotzmann_space, lex_segment


def _require_sqf(ctx: RingContext):
    if ctx.flavor != SQF:
        raise ValueError("this operation lives in the squarefree ring")


def squeeze_mask(mask: int, i: int) -> int:
    """Drop bit position i, shifting higher bits down."""
    return (mask & ((1 << i) - 1)) | ((mask >> (i + 1)) << i)


def unsqueeze_mask(mask: int, i: int) -> int:
    """Insert a zero bit at position i, shifting higher bits up."""
    return (mask & ((1 << i) - 1)) | ((mask >> i) << (i + 1))


class Decomposition(_Record):
    """V = vhat + x_i * vxi with both parts over the smaller ring Q."""

    __slots__ = _fields = ("i", "rctx", "vhat", "vxi")

    def __init__(self, i: int, rctx: RingContext, vhat: MonomialSpace, vxi: MonomialSpace):
        _setattr(self, "i", i)
        _setattr(self, "rctx", rctx)
        _setattr(self, "vhat", vhat)
        _setattr(self, "vxi", vxi)


def decompose(V: MonomialSpace, i: int) -> Decomposition:
    """Split V by divisibility by x_i; parts are reindexed into Q."""
    _require_sqf(V.ctx)
    if not 0 <= i < V.ctx.n:
        raise ValueError(f"variable index {i} out of range")
    if V.degree < 1:
        raise ValueError("decomposition needs degree at least one")
    q = q_context(V.ctx, i)
    bit = 1 << i
    hat = frozenset(squeeze_mask(m, i) for m in V.basis if not m & bit)
    xi = frozenset(squeeze_mask(m ^ bit, i) for m in V.basis if m & bit)
    return Decomposition(i, V.ctx, MonomialSpace(q, V.degree, hat),
                         MonomialSpace(q, V.degree - 1, xi))


def reassemble(dec: Decomposition) -> MonomialSpace:
    """Exact inverse of decompose."""
    bit = 1 << dec.i
    basis = {unsqueeze_mask(m, dec.i) for m in dec.vhat.basis}
    basis |= {unsqueeze_mask(m, dec.i) | bit for m in dec.vxi.basis}
    return MonomialSpace(dec.rctx, dec.vhat.degree, frozenset(basis))


def _lex_parts(dec: Decomposition, order=None) -> Decomposition:
    """Both parts of dec replaced by lex segments of the same sizes in Q."""
    q = dec.vhat.ctx
    return Decomposition(dec.i, dec.rctx, lex_segment(dec.vhat.dim, dec.vhat.degree, q, order),
                         lex_segment(dec.vxi.dim, dec.vxi.degree, q, order))


def compress(V: MonomialSpace, i: int, order=None) -> MonomialSpace:
    """Replace both parts of the x_i-decomposition by lex segments in Q.

    The order permutes the remaining variables; by default the induced
    identity order is used, which keeps x_i conceptually last.
    """
    return reassemble(_lex_parts(decompose(V, i), order))


class GrowthEquality(_Record):
    """Both sides of the shadow-size identity relating V to its compression."""

    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: int, rhs: int):
        _setattr(self, "lhs", lhs)
        _setattr(self, "rhs", rhs)

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def growth_equality(V: MonomialSpace, i: int, order=None) -> GrowthEquality:
    """Shadow size of V against the shadow size of its x_i-compression.

    Both are computed through the decomposition identity
    |m V| = |n vhat| + |vhat + n vxi|, exposed for inspection; the right side
    applies it to the lex parts that compress(V, i, order) reassembles.
    """
    dec = decompose(V, i)
    lhs = shadow_up(dec.vhat).dim + len(dec.vhat.basis | shadow_up(dec.vxi).basis)
    lex = _lex_parts(dec, order)
    rhs = shadow_up(lex.vhat).dim + len(lex.vhat.basis | shadow_up(lex.vxi).basis)
    return GrowthEquality(lhs, rhs)


def colon_with_n1(vhat: MonomialSpace) -> MonomialSpace:
    """Monomials one degree down whose every missing-variable multiple is in vhat."""
    _require_sqf(vhat.ctx)
    if vhat.degree < 1:
        raise ValueError("colon needs degree at least one")
    n = vhat.ctx.n
    d = vhat.degree
    levels = _mask_level_bitsets(n)[0]
    level_d, level_below = (levels[k] if k <= n else 0 for k in (d, d - 1))
    # m fails exactly when some m * x_j is missing, i.e. when m divides a
    # missing monomial; reflecting masks to their complements turns that
    # lower shadow into the upper shadow.
    missing = level_d & ~mask_bitset(vhat.basis)
    blocked = reflect_bitset(upper_shadow(reflect_bitset(missing, n), n), n)
    out = bitset_masks(level_below & ~blocked)
    return MonomialSpace(vhat.ctx, d - 1, frozenset(out))


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
    full = V.ctx.full_mask
    missing = (m for m in all_monomials(V.ctx, V.degree) if m not in V.basis)
    return MonomialSpace(V.ctx, V.ctx.n - V.degree,
                         frozenset(full ^ m for m in missing))


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
    the dual bitset.  That bitset is the reflected complement of an up-set, so
    it is an up-set too, and lex._grows_minimally tests its pieces in every
    degree 0..n against the Kruskal-Katona bound.
    """
    _require_sqf(I.ctx)
    return _grows_minimally(_dual_bitset(I), range(I.ctx.n + 1), I.ctx)


# ---------------------------------------------------------------------------
# choosing a variable and rebuilding Gotzmann spaces

def pick_variable(V: MonomialSpace) -> int:
    """Index i maximizing how many basis monomials x_i divides; ties go low."""
    if not V.basis:
        raise ValueError("cannot pick a variable of the zero space")
    best, best_count = 0, -1
    for i in range(V.ctx.n):
        bit = 1 << i
        count = sum(1 for m in V.basis if m & bit)
        if count > best_count:
            best, best_count = i, count
    return best


def reconstruct(vxi: MonomialSpace, i: int, name: str | None = None) -> MonomialSpace:
    """Rebuild (n_1 vxi) + x_i * vxi over the ring with x_i adjoined at index i.

    vxi must be Gotzmann in its ring; the rebuilt space is then Gotzmann one
    variable up, which is asserted.
    """
    _require_sqf(vxi.ctx)
    q = vxi.ctx
    if not 0 <= i <= q.n:
        raise ValueError(f"insertion index {i} out of range")
    if not is_gotzmann_space(vxi):
        raise ValueError("reconstruction needs a Gotzmann space")
    if name is None:
        # None when the alphabet runs out; RingContext then rejects the ring size
        name = next((c for c in ALPHABET if c not in q.names), None)
    rctx = RingContext(q.n + 1, SQF, q.names[:i] + (name,) + q.names[i:])
    rebuilt = reassemble(Decomposition(i, rctx, shadow_up(vxi), vxi))
    if not is_gotzmann_space(rebuilt):
        raise InvariantViolation("reconstruction produced a non-Gotzmann space")
    return rebuilt
