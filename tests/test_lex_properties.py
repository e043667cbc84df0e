"""Property tests of the variable-order search against the n! oracle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gotzmann.core import MonomialSpace, all_monomials, poly_ring, sqf_ring  # noqa: E402
from gotzmann.lex import is_lex_segment, is_lex_some_order, lex_segment  # noqa: E402

from support import lex_order_by_permutations  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def components(draw):
    """A ring with n <= 6 in either flavor and one degree of it (at most 3 in S)."""
    n = draw(st.integers(0, 6))
    ctx = draw(st.sampled_from((sqf_ring(n), poly_ring(n))))
    d = draw(st.integers(0, n if ctx.flavor == "R" else 3))
    return ctx, d


@SETTINGS
@given(components(), st.data())
def test_lex_segment_witness_is_no_larger_than_its_order(component, data):
    ctx, d = component
    perm = tuple(data.draw(st.permutations(range(ctx.n))))
    dim = data.draw(st.integers(0, len(all_monomials(ctx, d))))
    V = lex_segment(dim, d, ctx, perm)
    witness = is_lex_some_order(V)
    assert witness is not None and witness <= perm
    assert is_lex_segment(V, witness)


@SETTINGS
@given(components(), st.data())
def test_random_subset_matches_oracle(component, data):
    ctx, d = component
    mons = all_monomials(ctx, d)
    basis = data.draw(st.frozensets(st.sampled_from(mons)) if mons else st.just(frozenset()))
    V = MonomialSpace(ctx, d, basis)
    assert is_lex_some_order(V) == lex_order_by_permutations(V)
