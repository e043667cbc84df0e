import random
from collections import Counter

import pytest

from gotzmann import core, lex
from gotzmann.core import (
    MAX_VARS,
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    all_monomials,
    binom,
    component_space,
    gen_masks,
    mask_bitset,
    poly_ring,
    reflavor,
    shadow_up,
    space,
    sqf_ring,
    up_set,
    upper_shadow,
)
from gotzmann.lex import (
    _growth_bound,
    is_gotzmann_ideal,
    is_gotzmann_space,
    is_lex_segment,
    is_lex_some_order,
    lex_segment,
    lexify_in_R,
    macaulay_rep,
    minimal_growth,
    sqf_lexify_in_S,
)
from gotzmann.core import minimalize, sqf_hilbert
from gotzmann.counting import enumerate_antichains
from gotzmann.decompose import is_gdual_ideal
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import (
    all_subspaces,
    brute_min_shadow,
    direct_sqf_counts,
    gotzmann_by_components,
    growth_by_construction,
    lex_order_by_permutations,
    lexify_by_segments,
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
    listing = all_monomials(ctx, u.bit_count() if isinstance(u, int) else sum(u), order)
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

    def test_negative_degree_rejected(self):
        for ctx in (R4, S3):
            with pytest.raises(ValueError, match="^dimension 1 out of range 0..0$"):
                lex_segment(1, -1, ctx)
            with pytest.raises(ValueError, match="^degree must be nonnegative$"):
                lex_segment(0, -1, ctx)

    # a float degree both before and after the listing of R_1 is cached
    # under the equal key 1
    @pytest.mark.parametrize("d, ctx, warm", [
        (True, S3, False), (1.0, sqf_ring(3), False), (1.0, sqf_ring(3), True),
    ], ids=["bool", "float-cold", "float-warm"])
    def test_degree_must_be_an_int(self, d, ctx, warm):
        core._all_monomials.cache_clear()
        if warm:
            all_monomials(ctx, 1)
        with pytest.raises(ValueError, match=f"^degree must be an int, got {d!r}$"):
            lex_segment(1, d, ctx)

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

    def test_negative_count_or_degree_zero_rejected(self):
        for m, d in ((-1, 2), (3, 0)):
            with pytest.raises(ValueError, match="^need m >= 0 and d >= 1$"):
                macaulay_rep(m, d)

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
        # the lex-segment construction is the definition; the closed forms must
        # agree, on the first call and on the memoized second one
        _growth_bound.cache_clear()
        for n in range(8):
            ctx = sqf_ring(n)
            for d in range(n + 1):
                for dim in range(binom(n, d) + 1):
                    want = growth_by_construction(dim, d, ctx)
                    assert minimal_growth(dim, d, ctx) == want
                    assert minimal_growth(dim, d, ctx) == want
        for n in range(7):
            ctx = poly_ring(n)
            for d in range(5):
                for dim in range(ctx.dim_component(d) + 1):
                    want = growth_by_construction(dim, d, ctx)
                    assert minimal_growth(dim, d, ctx) == want
                    assert minimal_growth(dim, d, ctx) == want

    def test_dimension_out_of_range(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^dimension 7 out of range 0\.\.6$"):
                minimal_growth(7, 2, R4)
            with pytest.raises(ValueError, match=r"^dimension -1 out of range 0\.\.6$"):
                minimal_growth(-1, 2, S3)

    def test_named_rings_share_the_bound(self):
        named = sqf_ring(4, "wxyz")
        for d in range(5):
            for dim in range(binom(4, d) + 1):
                assert minimal_growth(dim, d, named) == minimal_growth(dim, d, R4)

    def test_bound_memo_is_bounded(self):
        assert _growth_bound.cache_info().maxsize is not None

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

    def test_ideals_with_a_square_match_components(self):
        # grown piece by piece against the test on materialized components
        rng = random.Random(2121)
        seen = Counter()
        for _ in range(3000):
            n = rng.randint(1, 4)
            ctx = poly_ring(n)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            I = minimalize(gens, ctx)
            if I.squarefree:
                continue
            got = is_gotzmann_ideal(I)
            assert got == gotzmann_by_components(I), I.gens
            seen[got] += 1
        assert seen[True] > 100 and seen[False] > 100


class TestOneShadowPerGrowthTest:
    """The squarefree growth tests take one upper_shadow, whatever the number of
    degrees they test: its degree-(d+1) part is the shadow of the degree-d piece."""

    @staticmethod
    def shadow_calls(monkeypatch, test, I):
        calls = []

        def counted(bits, n):
            calls.append(n)
            return upper_shadow(bits, n)

        monkeypatch.setattr(lex, "upper_shadow", counted)
        test(I)
        monkeypatch.undo()
        return len(calls)

    @staticmethod
    def ideals(flavor):
        rng = random.Random(2525)
        out = [ideal("ab,acd,bce", poly_ring(5) if flavor == "S" else sqf_ring(5))]
        while len(out) < 40:
            I = random_sqf_ideal(rng, rng.randint(3, 10), flavor)
            if len(I.degrees()) >= 2:
                out.append(I)
        return out

    def test_gotzmann_ideal_in_both_rings(self, monkeypatch):
        # one shadow in R; in S the structure theorem decides, so neither the
        # growth route nor a shadow runs
        for I in self.ideals("R"):
            assert self.shadow_calls(monkeypatch, is_gotzmann_ideal, I) == 1, I
        calls = []
        grows = lex._grows_minimally
        monkeypatch.setattr(lex, "_grows_minimally", lambda *a: calls.append(a) or grows(*a))
        for I in self.ideals("S"):
            assert is_gotzmann_ideal(I) == grows(up_set(gen_masks(I), I.ctx.n), I.ctx), I
        assert calls == []

    def test_gdual_ideal(self, monkeypatch):
        ideals = [I for n in range(5) for I in enumerate_antichains(n, "R")] + self.ideals("R")
        for I in ideals:
            assert self.shadow_calls(monkeypatch, is_gdual_ideal, I) == 1, I


class TestCountingKernel:
    """Up-set level counts and the up-set Gotzmann test against direct counts and components."""

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
        with pytest.raises(ValueError, match="^lexification needs a squarefree ideal$"):
            lexify_in_R(I)

    def test_lists_only_degrees_with_new_generators(self, monkeypatch):
        # the full degree-8 component on 16 variables: every other degree is
        # zero or all shadow, so its listing holds no generator
        ctx = sqf_ring(16)
        I = minimalize(all_monomials(ctx, 8), ctx)
        listed = []

        def listing(c, d, order=None):
            listed.append(d)
            return all_monomials(c, d, order)

        monkeypatch.setattr(lex, "all_monomials", listing)
        assert lexify_in_R(I) == I
        assert listed == [8]

    @staticmethod
    def _check_against_segments(I):
        want = lexify_by_segments(I)
        assert lexify_in_R(I) == want
        L = sqf_lexify_in_S(I)
        assert L.ctx is reflavor(I.ctx, "S") and L.gens == want.gens

    def test_s_lexification_moves_the_r_ideal_as_built(self, monkeypatch):
        # the lex ideal of R goes to S as it stands, at every size: the same
        # tuple objects (so none is made twice, past the shared tables of
        # n <= 8 too), the same masks, and the lexification by segments
        built = []

        def lexify(I):
            built.append(lexify_in_R(I))
            return built[-1]

        monkeypatch.setattr(lex, "lexify_in_R", lexify)
        rng = random.Random(34)
        for n in range(MAX_VARS + 1):
            S = poly_ring(n)
            for flavor in ("R", "S"):
                for _ in range(4):
                    I = random_sqf_ideal(rng, n, flavor, 2 * n)
                    L = sqf_lexify_in_S(I)
                    R = built.pop()
                    assert L.ctx is S, (n, I)
                    assert len(L.gens) == len(R.gens), (n, I)
                    assert all(a is b for a, b in zip(L.gens, R.gens)), (n, I)
                    assert L._masks == R._masks, (n, I)
                    want = lexify_by_segments(I)
                    assert L == MonomialIdeal(S, want.gens) and L._masks == want._masks, (n, I)

    def test_every_antichain_on_five_variables_matches_segments(self):
        for flavor in ("R", "S"):
            for I in enumerate_antichains(5, flavor=flavor):
                self._check_against_segments(I)

    def test_random_ideals_up_to_sixteen_variables_match_segments(self):
        rng = random.Random(24)
        for n in range(6, 17):
            for flavor in ("R", "S"):
                for _ in range(3):
                    self._check_against_segments(random_sqf_ideal(rng, n, flavor, 2 * n))

    def test_counts_missing_a_shadow_raise(self, monkeypatch):
        # one linear monomial in degree 1 and none of its degree-2 shadow
        monkeypatch.setattr(lex, "sqf_hilbert", lambda I: (0, 1, 0))
        with pytest.raises(InvariantViolation, match="^degree 2 "):
            lexify_in_R(minimalize([], sqf_ring(2)))


class TestKruskalKatonaSlices:
    """The shadow of the first v degree-d monomials of a listing is the first
    minimal_growth(v, d) monomials of degree d + 1 in the same listing; the
    lexification and the growth equality read their sizes off that fact."""

    @staticmethod
    def _check(ctx, order=None):
        n = ctx.n
        for d in range(n + 1):
            listing, above = all_monomials(ctx, d, order), all_monomials(ctx, d + 1, order)
            for v in range(len(listing) + 1):
                want = mask_bitset(above[:minimal_growth(v, d, ctx)])
                assert upper_shadow(mask_bitset(listing[:v]), n) == want, (n, d, v, order)

    def test_identity_listing_up_to_ten_variables(self):
        for n in range(11):
            self._check(sqf_ring(n))

    def test_sampled_orders(self):
        rng = random.Random(25)
        for n in range(2, 11):
            for _ in range(3):
                self._check(sqf_ring(n), rng.sample(range(n), n))


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
