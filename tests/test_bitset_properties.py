"""Property tests of minimalize and the up-set bitset kernel against brute-force definitions,
of the canonical order of stage generators the mask builder relies on, of the up-set
Gotzmann test against the recognizer and materialized components, and of the
persistence the antichain walk's cut rests on."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gotzmann import classify  # noqa: E402
from gotzmann.classify import canonicalize  # noqa: E402
from gotzmann.core import (  # noqa: E402
    MonomialIdeal,
    MonomialSpace,
    _ideal_from_antichain,
    _mask_level_bitsets,
    all_monomials,
    gen_masks,
    ideal_from_up_set,
    mask_to_exps,
    minimalize,
    poly_ring,
    sqf_ring,
    up_set,
    upper_shadow,
)
from gotzmann.classify import (  # noqa: E402
    SupernovaForm,
    recognize_supernova,
    stage_generators,
    supernova_to_ideal,
)
from gotzmann.decompose import colon_with_n1  # noqa: E402
from gotzmann.lex import _grows_at, _grows_minimally, is_gotzmann_ideal, lexify_in_R  # noqa: E402

from support import gotzmann_by_components, minimalize_by_tuples  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def mask_lists(draw):
    """A ring on n <= 8 variables in either flavor and a list of masks in it."""
    n = draw(st.integers(0, 8))
    ctx = draw(st.sampled_from((sqf_ring(n), poly_ring(n))))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    return ctx, masks


@st.composite
def monomial_lists(draw):
    """A ring on n <= 8 variables in either flavor and a list of masks, exponent
    tuples or a mix of both in it; only tuples of S have squares."""
    n = draw(st.integers(0, 8))
    ctx = draw(st.sampled_from((sqf_ring(n), poly_ring(n))))
    mask = st.integers(0, (1 << n) - 1)
    exps = st.tuples(*[st.integers(0, 2 if ctx.flavor == "S" else 1)] * n)
    item = draw(st.sampled_from((mask, exps, mask | exps)))
    return ctx, draw(st.lists(item, max_size=12))


def nonunit_masks(n):
    """Masks on n variables, the unit mask 0 only when n = 0."""
    full = (1 << n) - 1
    return st.integers(min(1, full), full)


@st.composite
def supernova_stages(draw, n, later_empty=True):
    """Stages (monomial mask, block mask) of a random supernova form on at most
    n variables: consecutive runs of a shuffled variable list become the stage
    monomials and blocks.  With later_empty false every stage monomial after
    the first is nonempty."""
    perm = draw(st.permutations(range(n)))
    used = draw(st.integers(0, n))
    stages, pos = [], 0
    while pos < used:
        low = 0 if later_empty or not stages else 1
        if used - pos - 1 < low:
            break
        m_size = draw(st.integers(low, used - pos - 1))
        b_size = draw(st.integers(1, used - pos - m_size))
        m = sum(1 << v for v in perm[pos:pos + m_size])
        block = sum(1 << v for v in perm[pos + m_size:pos + m_size + b_size])
        stages.append((m, block))
        pos += m_size + b_size
    return stages


def supernova_masks(n, later_empty=True):
    """Generator masks of a random supernova form on at most n variables.  With
    later_empty false stage_generators yields them in canonical order."""
    return supernova_stages(n, later_empty).map(stage_generators)


@st.composite
def sqf_poly_ideals(draw, max_vars=10):
    """A squarefree ideal of S on n <= max_vars variables: a random antichain,
    a supernova ideal, or a supernova ideal with extra random generators, so
    that Gotzmann and non-Gotzmann ideals both occur."""
    n = draw(st.integers(0, max_vars))
    ctx = poly_ring(n)
    extra = draw(st.lists(nonunit_masks(n), max_size=12))
    kind = draw(st.sampled_from(("antichain", "supernova", "perturbed")))
    if kind == "antichain":
        return minimalize(extra, ctx)
    gens = draw(supernova_masks(n))
    return minimalize(gens + (extra[:2] if kind == "perturbed" else []), ctx)


@st.composite
def sqf_ring_ideals(draw):
    """An ideal of R on n <= 8 variables: a random antichain, the lexification
    of one, which is Gotzmann, or that lexification with extra random generators."""
    n = draw(st.integers(0, 8))
    ctx = sqf_ring(n)
    extra = draw(st.lists(nonunit_masks(n), max_size=12))
    kind = draw(st.sampled_from(("antichain", "lex", "perturbed")))
    if kind == "antichain":
        return minimalize(extra, ctx)
    gens = list(gen_masks(lexify_in_R(minimalize(extra[2:], ctx))))
    return minimalize(gens + (extra[:2] if kind == "perturbed" else []), ctx)


@SETTINGS
@given(monomial_lists())
def test_minimalize_matches_tuple_oracle(case):
    ctx, items = case
    assert minimalize(items, ctx) == minimalize_by_tuples(items, ctx)


@SETTINGS
@given(mask_lists())
def test_ideal_from_up_set_is_minimalize(case):
    ctx, masks = case
    assert (ideal_from_up_set(up_set(masks, ctx.n), ctx) == minimalize(masks, ctx)
            == minimalize_by_tuples(masks, ctx))


@SETTINGS
@given(st.integers(0, 16), st.sampled_from("SR"), st.data())
def test_stage_generators_are_canonical(n, flavor, data):
    """Stage generators with every stage monomial after the first nonempty are
    what the builder takes unsorted: the validating constructor accepts them
    in the order given, and the builder makes the same ideal."""
    ctx = poly_ring(n) if flavor == "S" else sqf_ring(n)
    masks = data.draw(supernova_masks(n, later_empty=False))
    built = _ideal_from_antichain(masks, ctx)
    assert MonomialIdeal(ctx, tuple(mask_to_exps(m, n) for m in masks)) == built
    assert gen_masks(built) == tuple(masks)


def test_later_empty_stage_monomial_is_not_canonical(monkeypatch):
    """An empty stage monomial after the first puts a later stage's generator
    first in canonical order, so supernova forms, which allow it, still go
    through minimalize."""
    stages = ((0, 0b10), (0, 0b01))
    masks = stage_generators(stages)
    assert masks == [0b10, 0b01]
    ctx = poly_ring(2)
    with pytest.raises(ValueError, match="^generators must be sorted canonically$"):
        MonomialIdeal(ctx, tuple(mask_to_exps(m, 2) for m in masks))
    calls = []
    monkeypatch.setattr(classify, "minimalize",
                        lambda *args: calls.append(args) or minimalize(*args))
    I = supernova_to_ideal(SupernovaForm(stages), ctx)
    assert calls == [(masks, ctx)]
    assert I == MonomialIdeal(ctx, ((1, 0), (0, 1)))
    assert gen_masks(I) == (0b01, 0b10)


@SETTINGS
@given(st.integers(1, 8), st.data())
def test_colon_matches_definition(n, data):
    ctx = sqf_ring(n)
    d = data.draw(st.integers(1, n + 1))
    mons = all_monomials(ctx, d)
    basis = data.draw(st.frozensets(st.sampled_from(mons)) if mons else st.just(frozenset()))
    got = colon_with_n1(MonomialSpace(ctx, d, basis)).basis
    want = {m for m in all_monomials(ctx, d - 1)
            if all(m | 1 << j in basis for j in range(n) if not m >> j & 1)}
    assert got == want


@SETTINGS
@given(sqf_poly_ideals())
def test_gotzmann_in_S_iff_supernova(I):
    # the growth route on the up-set, which does not rest on the theorem
    grows = _grows_minimally(up_set(gen_masks(I), I.ctx.n), I.ctx)
    assert grows == (recognize_supernova(I) is not None)


@SETTINGS
@given(sqf_poly_ideals(max_vars=7))
def test_gotzmann_in_S_matches_components(I):
    assert is_gotzmann_ideal(I) == gotzmann_by_components(I)


@SETTINGS
@given(sqf_ring_ideals())
def test_gotzmann_in_R_matches_components(I):
    assert is_gotzmann_ideal(I) == gotzmann_by_components(I)


@st.composite
def mixed_antichains(draw):
    """An ideal of S or R on 3 <= n <= 8 variables from at least two random
    generators of degree two or more; most are not Gotzmann."""
    n = draw(st.integers(3, 8))
    ctx = draw(st.sampled_from((sqf_ring(n), poly_ring(n))))
    mask = st.integers(3, (1 << n) - 1).filter(lambda m: m.bit_count() >= 2)
    return minimalize(draw(st.lists(mask, min_size=2, max_size=12)), ctx)


@SETTINGS
@given(st.one_of(sqf_poly_ideals().filter(lambda I: I.ctx.n <= 8), sqf_ring_ideals(),
                 mixed_antichains()))
def test_growth_tests_agree_by_persistence(I):
    """Testing every degree from the first generator degree up to n, or only the
    degrees that hold generators, agrees with is_gotzmann_ideal, which stops at
    the top generator degree.  Each degree's test is _grows_at on the shadow of
    that degree's piece alone."""
    n = I.ctx.n
    bits = up_set(gen_masks(I), n)
    levels = _mask_level_bitsets(n)[0]
    counts = [(bits & level).bit_count() for level in levels]

    def grows(d):
        return _grows_at(counts, upper_shadow(bits & levels[d], n).bit_count(), d, I.ctx)

    degrees = I.degrees()
    first = degrees[0] if degrees else 0
    assert all(map(grows, range(first, n + 1))) == is_gotzmann_ideal(I)
    assert all(map(grows, degrees)) == is_gotzmann_ideal(I)


@st.composite
def bitsets(draw):
    """A variable count n <= 8 and any bitset over the 2^n masks."""
    n = draw(st.integers(0, 8))
    return n, draw(st.integers(0, (1 << (1 << n)) - 1))


@SETTINGS
@given(bitsets())
def test_one_shadow_holds_every_level_shadow(case):
    """The degree-(d+1) part of the shadow of a bitset is the shadow of its
    degree-d piece, which is what lets _grows_minimally take one shadow."""
    n, bits = case
    levels = _mask_level_bitsets(n)[0]
    shadow = upper_shadow(bits, n)
    for d in range(n):
        assert shadow & levels[d + 1] == upper_shadow(bits & levels[d], n)
    assert upper_shadow(bits & levels[n], n) == 0


def relabeled_stages(stages, n):
    """The stages under a random permutation of the n variables."""
    def move(perm, mask):
        return sum(1 << perm[v] for v in range(n) if mask >> v & 1)
    return st.permutations(range(n)).map(
        lambda perm: [(move(perm, m), move(perm, b)) for m, b in stages])


@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 7), st.data())
def test_signature_decides_canonical_key(n, data):
    """Two supernova forms on n <= 7 variables, every stage monomial after the
    first nonempty, have the same signature ((|m_j|, |B_j|), ...) exactly when
    canonicalize gives their ideals the same key.  The second form is an
    independent draw or a relabeling of the first."""
    first = data.draw(supernova_stages(n, later_empty=False))
    second = data.draw(st.one_of(supernova_stages(n, later_empty=False),
                                 relabeled_stages(first, n)))
    signatures, keys = [], []
    for stages in (first, second):
        signatures.append(tuple((m.bit_count(), b.bit_count()) for m, b in stages))
        keys.append(canonicalize(supernova_to_ideal(SupernovaForm(tuple(stages)), poly_ring(n))))
    assert (signatures[0] == signatures[1]) == (keys[0] == keys[1])
