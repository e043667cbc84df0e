"""Property tests of minimalize and the up-set bitset kernel against brute-force definitions."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gotzmann.core import (  # noqa: E402
    MonomialSpace,
    all_monomials,
    ideal_from_up_set,
    minimalize,
    poly_ring,
    sqf_ring,
    up_set,
)
from gotzmann.decompose import colon_with_n1  # noqa: E402

from support import minimalize_by_tuples  # noqa: E402

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
