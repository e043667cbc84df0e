"""Supernova normal forms and canonical keys under variable relabeling.

A supernova form is a list of stages (m_j, B_j) with all supports pairwise
disjoint; it generates the ideal whose stage-j generators are m_1...m_j * x
for x in B_j.  By the paper's structure theorem a squarefree ideal of S is
Gotzmann exactly when it has such a form, so lex.is_gotzmann_ideal decides
those ideals by _supernova_stages.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations
from operator import and_

from .core import (
    InvariantViolation,
    MonomialIdeal,
    RingContext,
    _Record,
    _restore,
    _setattr,
    gen_masks,
    iter_bits,
    minimalize,
    unit_ideal,
)

CANONICALIZE_MAX_VARS = 7


def _stage(stage) -> tuple[int, int]:
    """A stage as a (monomial, block) pair of masks, each of type int exactly;
    anything else raises ValueError naming it."""
    try:
        pair = tuple(stage)
    except TypeError:
        pair = ()
    if len(pair) != 2 or not all(type(m) is int for m in pair):
        raise ValueError(f"stage {stage!r} is not a (monomial, block) pair of int masks")
    return pair


class SupernovaForm(_Record):
    """Stages (monomial mask, block mask), int masks with pairwise disjoint supports.

    The empty form generates the zero ideal.  The unit flag marks the one
    degenerate form whose ideal is the whole ring; it carries no stages.
    """

    __slots__ = _fields = ("stages", "unit")

    def __init__(self, stages: tuple[tuple[int, int], ...], unit: bool = False):
        try:
            stages = tuple(stages)
        except TypeError:
            raise ValueError(f"stages {stages!r} is not a sequence of stages") from None
        stages = tuple(map(_stage, stages))
        if type(unit) is not bool:
            raise ValueError(f"unit must be a bool, got {unit!r}")
        if unit and stages:
            raise ValueError("the unit form carries no stages")
        used = 0
        for m, block in stages:
            if m < 0 or block < 0:
                raise ValueError("stage masks must be nonnegative")
            if not block:
                raise ValueError("every stage needs a nonempty variable block")
            if (m | block) & used or m & block:
                raise ValueError("stage supports must be pairwise disjoint")
            used |= m | block
        _setattr(self, "stages", stages)
        _setattr(self, "unit", unit)


def stage_generators(stages) -> list[int]:
    """Generator masks of stages (m_j, B_j): m_1...m_j * x for x in B_j, in
    stage order and within a stage by ascending x.  Stage validity is the
    caller's to ensure."""
    out = []
    acc = 0
    for m, block in stages:
        acc |= m
        while block:
            low = block & -block
            out.append(acc | low)
            block ^= low
    return out


def supernova_to_ideal(form: SupernovaForm, ctx: RingContext) -> MonomialIdeal:
    """The squarefree ideal generated by the form's stages.

    The stage generators are already an antichain, so minimalizing must not
    drop anything; that is asserted.  A form that uses variables outside the
    ring raises minimalize's ValueError naming the first such mask.
    """
    if form.unit:
        return unit_ideal(ctx)
    masks = stage_generators(form.stages)
    ideal = minimalize(masks, ctx)
    if len(ideal.gens) != len(masks):
        raise InvariantViolation("supernova stages did not form an antichain")
    return ideal


def _supernova_stages(masks):
    """The stages of the supernova form of a squarefree antichain of nonunit
    masks, or None when it has none.

    Linear generators are stripped into one block; otherwise the mask common
    to every generator is divided out whole into the pending stage monomial,
    and one nonlinear generator left ends the form with its highest bit as
    the block.  When no step applies there is no form.  Dividing the common
    mask whole gives the forms of dividing it one bit at a time: two or more
    masks of an antichain each hold a bit outside it, so none turns linear
    before all of it is divided out.
    """
    stages = []
    pending = 0
    rest = masks
    while rest:
        block = 0
        kept = []
        for g in rest:
            if g & (g - 1):
                kept.append(g)
            else:
                block |= g
        if block:
            stages.append((pending, block))
            pending = 0
            rest = kept
            continue
        if len(rest) == 1:
            top = 1 << rest[0].bit_length() - 1
            stages.append((pending | rest[0] ^ top, top))
            break
        common = reduce(and_, rest)
        if not common:
            return None
        pending |= common
        rest = [g ^ common for g in rest]
    return stages


def recognize_supernova(I: MonomialIdeal):
    """The supernova form generating exactly I, or None; I must be squarefree.

    The stages of _supernova_stages are disjoint by construction, so the
    form is built unchecked.
    """
    if not I.squarefree:
        raise ValueError("supernova recognition needs a squarefree ideal")
    if I.is_zero:
        return SupernovaForm(())
    if I.is_unit:
        return SupernovaForm((), unit=True)
    stages = _supernova_stages(gen_masks(I))
    return None if stages is None else _restore(SupernovaForm, (tuple(stages), False))


def format_supernova(form: SupernovaForm, ctx: RingContext) -> str:
    """Nested product notation, e.g. "a*(b,c) + a*d*(e)"."""
    if form.unit:
        return "1"
    if not form.stages:
        return "0"
    parts = []
    acc = 0
    for m, block in form.stages:
        acc |= m
        names = [ctx.names[i] for i in iter_bits(acc)]
        block_names = ",".join(ctx.names[i] for i in iter_bits(block))
        prefix = "*".join(names) + "*" if names else ""
        parts.append(f"{prefix}({block_names})")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# canonical keys under variable relabeling

def _remap_mask(mask: int, perm) -> int:
    out = 0
    for i in iter_bits(mask):
        out |= 1 << perm[i]
    return out


@lru_cache(maxsize=4)
def _mask_relabel_tables(n: int):
    """One mask-remapping lookup table per permutation of n variables."""
    tables = []
    for perm in permutations(range(n)):
        tables.append([_remap_mask(m, perm) for m in range(1 << n)])
    return tables


def canonicalize(I: MonomialIdeal):
    """Least sorted generator mask tuple over all variable relabelings.

    Two squarefree ideals get equal keys exactly when a permutation of the
    variables carries one onto the other.  The factorial search reads one
    relabeling table per permutation, so it is guarded at
    CANONICALIZE_MAX_VARS variables: 5040 tables of 128 masks at n = 7.
    """
    n = I.ctx.n
    if n > CANONICALIZE_MAX_VARS:
        raise ValueError(f"canonicalization is limited to {CANONICALIZE_MAX_VARS} variables")
    if not I.squarefree:
        raise ValueError("canonicalization needs a squarefree ideal")
    masks = gen_masks(I)
    return min(tuple(sorted(map(table.__getitem__, masks)))
               for table in _mask_relabel_tables(n))
