"""Supernova normal forms and canonical keys under variable relabeling.

A supernova form is a list of stages (m_j, B_j) with all supports pairwise
disjoint; it generates the ideal whose stage-j generators are m_1...m_j * x
for x in B_j.  Squarefree ideals of the polynomial ring are Gotzmann exactly
when they admit such a form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .core import (
    InvariantViolation,
    MonomialIdeal,
    RingContext,
    _Record,
    _setattr,
    gen_masks,
    iter_bits,
    minimalize,
    unit_ideal,
)

CANONICALIZE_MAX_VARS = 7


class SupernovaForm(_Record):
    """Stages (monomial mask, block mask) with pairwise disjoint supports.

    The empty form generates the zero ideal.  The unit flag marks the one
    degenerate form whose ideal is the whole ring; it carries no stages.
    """

    __slots__ = _fields = ("stages", "unit")

    def __init__(self, stages: tuple[tuple[int, int], ...], unit: bool = False):
        if unit and stages:
            raise ValueError("the unit form carries no stages")
        used = 0
        for m, block in stages:
            if not block:
                raise ValueError("every stage needs a nonempty variable block")
            if (m | block) & used or m & block:
                raise ValueError("stage supports must be pairwise disjoint")
            used |= m | block
        _setattr(self, "stages", stages)
        _setattr(self, "unit", unit)


def stage_generators(stages, acc: int = 0) -> list[int]:
    """Generator masks of stages (m_j, B_j): acc * m_1...m_j * x for x in B_j.

    Stage validity is the caller's to ensure; acc is the product of the stage
    monomials that come before these stages.
    """
    out = []
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
    drop anything; that is asserted.
    """
    if form.unit:
        return unit_ideal(ctx)
    masks = stage_generators(form.stages)
    for m in masks:
        if m >> ctx.n:
            raise ValueError("form uses variables outside the ring")
    ideal = minimalize(masks, ctx)
    if len(ideal.gens) != len(masks):
        raise InvariantViolation("supernova stages did not form an antichain")
    return ideal


def recognize_supernova(I: MonomialIdeal):
    """Find a supernova form generating exactly I, or None.

    Degree-one generators are stripped into a block; otherwise a variable
    common to every remaining generator is divided out and absorbed into the
    pending stage monomial.  When neither step applies the ideal has no form.
    """
    if not I.squarefree:
        raise ValueError("supernova recognition needs a squarefree ideal")
    if I.is_zero:
        return SupernovaForm(())
    if I.is_unit:
        return SupernovaForm((), unit=True)
    remaining = set(gen_masks(I))
    stages = []
    pending = 0
    while remaining:
        linear = {g for g in remaining if g.bit_count() == 1}
        if linear:
            block = 0
            for g in linear:
                block |= g
            stages.append((pending, block))
            pending = 0
            remaining -= linear
            continue
        common = ~0
        for g in remaining:
            common &= g
        if not common:
            return None
        low = common & -common
        pending |= low
        remaining = {g ^ low for g in remaining}
    return SupernovaForm(tuple(stages))


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
        names = [ctx.name(i) for i in iter_bits(acc)]
        block_names = ",".join(ctx.name(i) for i in iter_bits(block))
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
