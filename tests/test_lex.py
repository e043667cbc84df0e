import random
from collections import Counter

import pytest

from gotzmann.core import (
    MonomialSpace,
    all_monomials,
    binom,
    component_space,
    poly_ring,
    shadow_up,
    space,
    sqf_ring,
)
from gotzmann.lex import (
    is_gotzmann_ideal,
    is_gotzmann_space,
    is_lex_segment,
    is_lex_some_order,
    lex_segment,
    lexify_in_R,
    macaulay_rep,
    minimal_growth,
    sorted_monomials,
    sqf_lexify_in_S,
)
from gotzmann.core import minimalize, sqf_degree_table, sqf_hilbert
from gotzmann.counting import enumerate_antichains
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import (
    all_subspaces,
    brute_min_shadow,
    direct_sqf_counts,
    gotzmann_by_components,
    growth_by_construction,
    lex_order_by_permutations,
    random_space,
    random_sqf_ideal,
)

R4 = sqf_ring(4)
S3 = poly_ring(3)


def ideal(text, ctx):
    return parse_ideal_inline(text, ctx)


def mask(text, ctx):
    from gotzmann.core import exps_to_mask

    return exps_to_mask(parse_monomial(text, ctx))


def lex_greater(u, v, ctx, order=None):
    """Whether u comes before v in the degree listing under the order."""
    listing = sorted_monomials(ctx, u.bit_count() if isinstance(u, int) else sum(u), order)
    return listing.index(u) < listing.index(v)


class TestLexCompare:
    def test_shared_leading_variable(self):
        assert lex_greater(mask("ab", R4), mask("ac", R4), R4)

    def test_leading_variable_wins(self):
        assert lex_greater(mask("ad", R4), mask("bc", R4), R4)

    def test_poly_monomials(self):
        assert lex_greater((2, 0, 0), (1, 1, 0), S3)
        assert lex_greater((0, 2, 0), (0, 1, 1), S3)

    def test_respects_custom_order(self):
        # under b > a: b^2 is greater than ab
        assert lex_greater((0, 2), (1, 1), poly_ring(2), order=(1, 0))
        # masks under d > c > b > a: cd beats ab
        assert lex_greater(mask("cd", R4), mask("ab", R4), R4, order=(3, 2, 1, 0))


class TestLexSegment:
    def test_dimension_three(self):
        V = lex_segment(3, 2, R4)
        assert V.basis == space(R4, 2, [mask(t, R4) for t in ("ab", "ac", "ad")]).basis

    def test_dimension_four(self):
        V = lex_segment(4, 2, R4)
        assert V.basis == space(R4, 2, [mask(t, R4) for t in ("ab", "ac", "ad", "bc")]).basis

    def test_empty(self):
        assert lex_segment(0, 2, R4).dim == 0

    def test_too_large(self):
        with pytest.raises(ValueError):
            lex_segment(7, 2, R4)

    def test_nesting(self):
        for ctx in (R4, S3):
            for d in range(4):
                total = len(all_monomials(ctx, d))
                for k in range(total):
                    assert lex_segment(k, d, ctx).basis < lex_segment(k + 1, d, ctx).basis

    def test_shadow_of_segment_is_segment(self):
        for ctx in (R4, S3, sqf_ring(5)):
            for d in range(1, 4):
                for k in range(len(all_monomials(ctx, d)) + 1):
                    shade = shadow_up(lex_segment(k, d, ctx))
                    assert is_lex_segment(shade)


class TestIsLexSomeOrder:
    def test_identity_segment(self):
        V = space(R4, 2, [mask(t, R4) for t in ("ab", "ac", "ad")])
        assert is_lex_segment(V)
        assert is_lex_some_order(V) is not None

    def test_four_cycle_has_no_order(self):
        V = space(R4, 2, [mask(t, R4) for t in ("ab", "ac", "bd", "cd")])
        assert is_lex_some_order(V) is None

    def test_seven_generators_have_no_order(self):
        R5 = sqf_ring(5)
        V = space(R5, 3, [mask(t, R5) for t in
                          ("abc", "abd", "abe", "acd", "ace", "bcd", "bce")])
        assert is_lex_some_order(V) is None

    def test_finds_scrambled_orders(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            ctx = sqf_ring(n)
            d = rng.randint(0, n)
            perm = tuple(rng.sample(range(n), n))
            dim = rng.randint(0, binom(n, d))
            V = lex_segment(dim, d, ctx, perm)
            witness = is_lex_some_order(V)
            assert witness is not None
            assert is_lex_segment(V, witness)

    def test_smallest_witness_returned(self):
        V = space(R4, 1, [mask("a", R4)])
        # every order starting with a works; the smallest is the identity
        assert is_lex_some_order(V) == (0, 1, 2, 3)

    def test_matches_permutation_oracle(self):
        def agree(V):
            assert is_lex_some_order(V) == lex_order_by_permutations(V), V

        for n in range(6):
            ctx = sqf_ring(n)
            for d in range(n + 1):
                for V in all_subspaces(ctx, d):
                    agree(V)
        for n in range(4):
            for d in range(4):
                for V in all_subspaces(poly_ring(n), d):
                    agree(V)
        rng = random.Random(17)
        S4 = poly_ring(4)
        for _ in range(200):
            agree(random_space(rng, S4, rng.randint(0, 4)))
        for n in range(1, 8):
            for ctx in (sqf_ring(n), poly_ring(n)):
                for _ in range(4):
                    d = rng.randint(0, n if ctx.flavor == "R" else 3)
                    perm = tuple(rng.sample(range(n), n))
                    dim = rng.randint(0, len(all_monomials(ctx, d)))
                    agree(lex_segment(dim, d, ctx, perm))

    def test_sixteen_variables(self):
        rng = random.Random(19)
        ctx = sqf_ring(16)
        for d in range(2, 9):
            perm = tuple(rng.sample(range(16), 16))
            V = lex_segment(rng.randint(1, binom(16, d) - 1), d, ctx, perm)
            witness = is_lex_some_order(V)
            assert witness is not None and is_lex_segment(V, witness)
        R8 = sqf_ring(8)
        assert is_lex_some_order(space(R8, 2, [mask("ab", R8), mask("cd", R8)])) is None


class TestIsLexIdeal:
    def test_lex_ideal_recognized(self):
        I = ideal("ab,ac,ad,bc", R4)
        assert lexify_in_R(I) == I
        J = ideal("ab,ac,bd,cd", R4)
        assert lexify_in_R(J) != J

    def test_order_parameter(self):
        I = ideal("bc", R4)  # lex once b is the greatest variable
        assert not all(is_lex_segment(component_space(I, d)) for d in range(5))
        assert all(is_lex_segment(component_space(I, d), (1, 2, 0, 3)) for d in range(5))


class TestMacaulay:
    def test_greedy_five(self):
        assert macaulay_rep(5, 2) == ((3, 2), (2, 1))

    def test_zero(self):
        assert macaulay_rep(0, 3) == ()

    def test_exact_binomial(self):
        assert macaulay_rep(3, 2) == ((3, 2),)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(300):
            m = rng.randint(0, 4000)
            d = rng.randint(1, 8)
            rep = macaulay_rep(m, d)
            assert sum(binom(a, i) for a, i in rep) == m
            tops = [a for a, _ in rep]
            lows = [i for _, i in rep]
            assert tops == sorted(tops, reverse=True)
            assert lows == sorted(lows, reverse=True)
            assert all(a >= i for a, i in rep)


class TestMinimalGrowth:
    def test_frozen_small_values(self):
        assert minimal_growth(3, 2, R4) == 3
        assert minimal_growth(4, 2, R4) == 4

    def test_full_component(self):
        for d in range(4):
            assert minimal_growth(binom(4, d), d, R4) == binom(4, d + 1)

    def test_matches_exhaustive_minimum_in_R(self):
        for d in (1, 2, 3):
            for dim in range(binom(4, d) + 1):
                assert minimal_growth(dim, d, R4) == brute_min_shadow(R4, d, dim)

    def test_matches_exhaustive_minimum_in_S(self):
        for dim in range(7):
            assert minimal_growth(dim, 2, S3) == brute_min_shadow(S3, 2, dim)

    def test_closed_form_cross_check(self):
        # the lex-segment construction is the definition; the closed forms must agree
        for n in range(8):
            ctx = sqf_ring(n)
            for d in range(n + 1):
                for dim in range(binom(n, d) + 1):
                    assert minimal_growth(dim, d, ctx) == growth_by_construction(dim, d, ctx)
        for n in range(7):
            ctx = poly_ring(n)
            for d in range(5):
                for dim in range(ctx.dim_component(d) + 1):
                    assert minimal_growth(dim, d, ctx) == growth_by_construction(dim, d, ctx)

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            minimal_growth(7, 2, R4)
        with pytest.raises(ValueError):
            minimal_growth(-1, 2, S3)

    def test_kruskal_katona_lower_bound_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 7)
            ctx = sqf_ring(n)
            d = rng.randint(0, n)
            V = random_space(rng, ctx, d)
            assert shadow_up(V).dim >= minimal_growth(V.dim, d, ctx)


class TestGotzmannSpaces:
    def test_four_cycle_space_is_gotzmann(self):
        V = space(R4, 2, [mask(t, R4) for t in ("ab", "ac", "bd", "cd")])
        assert shadow_up(V).dim == 4
        assert is_gotzmann_space(V)

    def test_triangle_is_not_gotzmann_on_four_variables(self):
        V = space(R4, 2, [mask(t, R4) for t in ("ab", "ac", "bc")])
        assert not is_gotzmann_space(V)

    def test_empty_and_full(self):
        assert is_gotzmann_space(space(R4, 2, []))
        assert is_gotzmann_space(MonomialSpace(R4, 2, frozenset(all_monomials(R4, 2))))

    def test_lex_segments_always_gotzmann(self):
        for ctx in (R4, sqf_ring(5), S3):
            for d in range(4):
                for k in range(len(all_monomials(ctx, d)) + 1):
                    assert is_gotzmann_space(lex_segment(k, d, ctx))

    def test_persistence_exhaustive_small(self):
        ctx = sqf_ring(4)
        for d in range(5):
            for V in all_subspaces(ctx, d):
                if is_gotzmann_space(V):
                    assert is_gotzmann_space(shadow_up(V))

    def test_persistence_random(self):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(1, 7)
            ctx = sqf_ring(n)
            d = rng.randint(0, n)
            perm = tuple(rng.sample(range(n), n))
            V = lex_segment(rng.randint(0, binom(n, d)), d, ctx, perm)
            assert is_gotzmann_space(V)
            assert is_gotzmann_space(shadow_up(V))


class TestGotzmannIdeals:
    def test_four_cycle_in_R(self):
        assert is_gotzmann_ideal(ideal("ab,ac,bd,cd", R4))

    def test_triangle_in_S(self):
        assert not is_gotzmann_ideal(ideal("ab,ac,bc", S3))

    def test_single_variable(self):
        assert is_gotzmann_ideal(ideal("a", S3))
        assert is_gotzmann_ideal(ideal("a", sqf_ring(3)))

    def test_trivial_ideals(self):
        assert is_gotzmann_ideal(ideal("0", S3))
        assert is_gotzmann_ideal(ideal("1", S3))
        assert is_gotzmann_ideal(ideal("0", R4))
        assert is_gotzmann_ideal(ideal("1", R4))

    def test_transform_path_matches_direct_path(self):
        # the squarefree shortcut must agree with materialized components
        rng = random.Random(55)
        for _ in range(120):
            n = rng.randint(1, 5)
            I = random_sqf_ideal(rng, n, "S")
            if I.is_zero:
                continue
            assert is_gotzmann_ideal(I) == gotzmann_by_components(I)


class TestCountingKernel:
    """The one-pass squarefree count table against direct counts and materialized components."""

    @staticmethod
    def check(I):
        assert sqf_hilbert(I) == direct_sqf_counts(I)
        assert is_gotzmann_ideal(I) == gotzmann_by_components(I)

    def test_random_ideals_both_rings(self):
        rng = random.Random(9090)
        for flavor in ("S", "R"):
            for _ in range(60):
                self.check(random_sqf_ideal(rng, rng.randint(0, 9), flavor))

    def test_every_small_antichain_both_rings(self):
        for flavor in ("S", "R"):
            for n in range(5):
                for I in enumerate_antichains(n, flavor=flavor):
                    self.check(I)

    def test_table_columns_split_by_first_generator_degree(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(0, 8)
            I = random_sqf_ideal(rng, n, "R")
            table = sqf_degree_table(I)
            for e in range(n + 1):
                low = minimalize([g for g in I.gens if sum(g) <= e], I.ctx)
                assert tuple(sum(row[:e + 1]) for row in table) == direct_sqf_counts(low)


class TestLexify:
    def test_four_cycle(self):
        I = ideal("ab,ac,bd,cd", R4)
        L = lexify_in_R(I)
        assert L == ideal("ab,ac,ad,bc", R4)
        assert sqf_hilbert(L) == sqf_hilbert(I)

    def test_fixed_point(self):
        L = ideal("ab,ac,ad,bc", R4)
        assert lexify_in_R(L) == L

    def test_degreewise_dimensions(self):
        I = ideal("bd,cd", R4)
        assert lexify_in_R(I) == ideal("ab,ac", R4)

    def test_trivial_ideals(self):
        assert lexify_in_R(ideal("0", R4)).is_zero
        assert lexify_in_R(ideal("1", R4)).is_unit

    def test_sqf_lexify_lives_in_S(self):
        I = ideal("ab,ac,bd,cd", R4)
        L = sqf_lexify_in_S(I)
        assert L.ctx.flavor == "S"
        assert L.gens == lexify_in_R(I).gens

    def test_random_hilbert_preservation(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 6)
            I = random_sqf_ideal(rng, n, "R")
            L = lexify_in_R(I)
            assert sqf_hilbert(L) == sqf_hilbert(I)
            top = sqf_ring(n).n
            for d in range(top + 1):
                assert is_lex_segment(component_space(L, d))

    def test_non_squarefree_rejected(self):
        I = minimalize([(2, 0, 0)], S3)
        with pytest.raises(ValueError):
            lexify_in_R(I)


class TestStructuralLemmas:
    """Small-n sweeps of the structural facts relating S, R, and lexifications."""

    def test_generator_counts_characterize_gotzmann_in_R(self):
        for I in enumerate_antichains(4, flavor="R"):
            L = lexify_in_R(I)
            same = Counter(map(sum, I.gens)) == Counter(map(sum, L.gens))
            assert same == is_gotzmann_ideal(I)

    def test_gotzmann_in_S_implies_gotzmann_in_R(self):
        from gotzmann.core import MonomialIdeal, reflavor

        for I in enumerate_antichains(4, flavor="S"):
            if is_gotzmann_ideal(I):
                J = MonomialIdeal(reflavor(I.ctx, "R"), I.gens)
                assert is_gotzmann_ideal(J)

    def test_squarefree_lexification_of_gotzmann_is_gotzmann(self):
        for I in enumerate_antichains(4, flavor="S"):
            if is_gotzmann_ideal(I):
                assert is_gotzmann_ideal(sqf_lexify_in_S(I))

    def test_lexification_in_first_variable_iff_contained_in_some_variable(self):
        from support import contained_in_variable

        for I in enumerate_antichains(4, flavor="S"):
            L = sqf_lexify_in_S(I)
            lhs = contained_in_variable(L, 0)
            rhs = any(contained_in_variable(I, i) for i in range(4))
            assert lhs == rhs

    def test_gotzmann_contains_or_is_contained_in_a_variable(self):
        for n in range(1, 6):
            one_vars = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            for I in enumerate_antichains(n, flavor="S"):
                if not is_gotzmann_ideal(I):
                    continue
                below = any(all(e[i] for e in I.gens) for i in range(n))
                above = any(I.contains(v) for v in one_vars)
                assert below or above
