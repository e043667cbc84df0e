import random

import pytest

from gotzmann.core import (
    SQF,
    all_monomials,
    binom,
    component_space,
    poly_ring,
    shadow_up,
    space,
    sqf_ring,
    unit_ideal,
    zero_ideal,
)
from gotzmann.counting import enumerate_antichains
from gotzmann.decompose import (
    alexander_dual_ideal,
    alexander_dual_space,
    colon_with_n1,
    compress,
    decompose,
    growth_equality,
    is_gdual,
    is_gdual_ideal,
    pick_variable,
    reassemble,
    reconstruct,
)
from gotzmann.lex import is_gotzmann_ideal, is_gotzmann_space, lex_segment
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import (
    all_subspaces,
    dual_by_components,
    gdual_by_components,
    gotzmann_spaces,
    random_space,
    random_sqf_ideal,
)

R4 = sqf_ring(4)
R5 = sqf_ring(5)


def ideal(text, ctx):
    return parse_ideal_inline(text, ctx)


def sp(ctx, d, *texts):
    return space(ctx, d, [parse_monomial(t, ctx) for t in texts])


class TestDecompose:
    def test_four_cycle_split_at_a(self):
        V = sp(R4, 2, "ab", "ac", "bd", "cd")
        dec = decompose(V, 0)
        q = dec.vhat.ctx
        assert q.names == ("b", "c", "d")
        assert dec.vhat.basis == sp(q, 2, "bd", "cd").basis
        assert dec.vxi.basis == sp(q, 1, "b", "c").basis

    def test_no_occurrences_gives_empty_part(self):
        V = sp(R4, 2, "bc", "bd")
        dec = decompose(V, 0)
        assert dec.vxi.dim == 0 and dec.vhat.dim == 2

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(2, 6)
            ctx = sqf_ring(n)
            d = rng.randint(1, n)
            V = random_space(rng, ctx, d)
            i = rng.randrange(n)
            assert reassemble(decompose(V, i)) == V

    def test_bad_variable(self):
        with pytest.raises(ValueError):
            decompose(sp(R4, 2, "ab"), 4)


class TestCompress:
    def test_four_cycle_compression(self):
        V = sp(R4, 2, "ab", "ac", "bd", "cd")
        T = compress(V, 0)
        assert T.basis == sp(R4, 2, "ab", "ac", "bc", "bd").basis

    def test_fixed_point(self):
        V = sp(R4, 2, "ab", "ac", "bc", "bd")
        assert compress(V, 0) == V

    def test_full_component_fixed(self):
        V = space(R4, 2, all_monomials(R4, 2))
        assert compress(V, 2) == V

    def test_never_increases_shadow(self):
        rng = random.Random(77)
        for _ in range(1000):
            n = rng.randint(2, 7)
            ctx = sqf_ring(n)
            d = rng.randint(1, n)
            V = random_space(rng, ctx, d)
            i = rng.randrange(n)
            order = tuple(rng.sample(range(n - 1), n - 1))
            T = compress(V, i, order)
            assert shadow_up(T).dim <= shadow_up(V).dim

    def test_growth_equality_diagnostic_reports_both_sides(self):
        V = sp(R4, 2, "ab", "ac", "bd", "cd")
        eq = growth_equality(V, 0)
        assert eq.lhs == shadow_up(V).dim
        assert eq.rhs == shadow_up(compress(V, 0)).dim
        assert eq.holds
        rng = random.Random(91)
        for _ in range(500):
            n = rng.randint(2, 7)
            d = rng.randint(1, n)
            V = random_space(rng, sqf_ring(n), d)
            i = rng.randrange(n)
            order = tuple(rng.sample(range(n - 1), n - 1))
            eq = growth_equality(V, i, order)
            assert eq.lhs == shadow_up(V).dim
            assert eq.rhs == shadow_up(compress(V, i, order)).dim


class TestDecompositionGrowth:
    def _check(self, V, i):
        dec = decompose(V, i)
        shade = decompose(shadow_up(V), i)
        assert shade.vhat.basis == shadow_up(dec.vhat).basis
        assert shade.vxi.basis == dec.vhat.basis | shadow_up(dec.vxi).basis

    def test_exhaustive_small(self):
        for n in (2, 3, 4):
            ctx = sqf_ring(n)
            for d in range(1, n + 1):
                for V in all_subspaces(ctx, d):
                    for i in range(n):
                        self._check(V, i)

    def test_random_large(self):
        rng = random.Random(123)
        for _ in range(1000):
            n = rng.randint(2, 7)
            ctx = sqf_ring(n)
            d = rng.randint(1, n)
            V = random_space(rng, ctx, d)
            self._check(V, rng.randrange(n))


class TestColon:
    def test_full_gives_full(self):
        q = sqf_ring(3)
        assert colon_with_n1(space(q, 2, all_monomials(q, 2))) == space(q, 1, all_monomials(q, 1))

    def test_empty_gives_empty_below_top(self):
        q = sqf_ring(3)
        assert colon_with_n1(space(q, 2, [])).dim == 0

    def test_empty_at_top_is_vacuous(self):
        # at the top degree no extension exists, so everything one down passes
        q = sqf_ring(2)
        V = space(q, 2, [])
        assert colon_with_n1(V).dim == 0  # bc missing blocks both b and c? no: deg 2 is top
        q3 = sqf_ring(3)
        top = space(q3, 3, [])
        assert colon_with_n1(top).dim == 0

    def test_frozen_example_with_brute_oracle(self):
        q = sqf_ring(3)  # variables b, c, d by position
        q = sqf_ring(3, names=("b", "c", "d"))
        V = sp(q, 2, "bc", "bd", "cd")
        got = colon_with_n1(V)
        # oracle: check all extensions of every degree-1 monomial directly
        expect = set()
        for m in all_monomials(q, 1):
            if all((m | (1 << j)) in V.basis for j in range(3) if not m >> j & 1):
                expect.add(m)
        assert got.basis == frozenset(expect) == sp(q, 1, "b", "c", "d").basis

    def test_random_spaces_match_brute_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            n, d = rng.randint(1, 8), rng.randint(1, 8)
            V = random_space(rng, sqf_ring(n), d)
            if rng.random() < 0.5:  # shadows have large colons
                V = shadow_up(random_space(rng, sqf_ring(n), d - 1))
            expect = {m for m in all_monomials(V.ctx, V.degree - 1)
                      if all(m | 1 << j in V.basis for j in range(n) if not m >> j & 1)}
            assert colon_with_n1(V).basis == frozenset(expect)


class TestAlexanderDuality:
    def test_four_cycle_dual_space(self):
        V = sp(R4, 2, "ab", "ac", "bd", "cd")
        W = alexander_dual_space(V)
        assert W.basis == sp(R4, 2, "bc", "ad").basis
        assert not is_gotzmann_space(W)
        assert not is_gdual(V)

    def test_full_and_zero_components_dualize_to_each_other(self):
        for d in range(5):
            assert alexander_dual_space(space(R4, d, all_monomials(R4, d))).dim == 0
            assert alexander_dual_space(space(R4, d, [])) == \
                space(R4, 4 - d, all_monomials(R4, 4 - d))

    def test_involution(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 7)
            ctx = sqf_ring(n)
            d = rng.randint(0, n)
            V = random_space(rng, ctx, d)
            assert alexander_dual_space(alexander_dual_space(V)) == V

    def test_dual_ideal_of_four_cycle(self):
        I = ideal("ab,ac,bd,cd", R4)
        D = alexander_dual_ideal(I)
        assert D == ideal("ad,bc", R4)
        assert not is_gotzmann_ideal(D)

    def test_dual_ideal_of_seven_generators_not_gotzmann(self):
        I = ideal("abc,abd,abe,acd,ace,bcd,bce", R5)
        assert is_gotzmann_ideal(I)
        assert not is_gotzmann_ideal(alexander_dual_ideal(I))

    def test_trivial_duals(self):
        assert alexander_dual_ideal(zero_ideal(R4)).is_unit
        assert alexander_dual_ideal(unit_ideal(R4)).is_zero

    def test_dual_ideal_involution_random(self):
        rng = random.Random(6)
        for _ in range(150):
            n = rng.randint(1, 5)
            I = random_sqf_ideal(rng, n, "R")
            assert alexander_dual_ideal(alexander_dual_ideal(I)) == I

    def test_bitset_dual_matches_componentwise_oracle(self):
        ideals = [I for n in range(6) for I in enumerate_antichains(n, SQF)]
        rng = random.Random(15)
        ideals += [random_sqf_ideal(rng, rng.randint(6, 12), "R") for _ in range(60)]
        for n in (0, 1, 16):
            ideals += [zero_ideal(sqf_ring(n)), unit_ideal(sqf_ring(n))]
        for I in ideals:
            assert alexander_dual_ideal(I) == dual_by_components(I), I
            assert is_gdual_ideal(I) == gdual_by_components(I), I

    def test_full_component_is_gdual(self):
        for d in range(5):
            assert is_gdual(space(R4, d, all_monomials(R4, d)))

    def test_gdual_components_of_mixed_ideal(self):
        I = ideal("bc,abd,abe,acd,ace,ade", R5)
        for d in range(6):
            assert is_gdual(component_space(I, d))
        assert is_gdual_ideal(I)

    def test_requires_squarefree_ring(self):
        with pytest.raises(ValueError):
            alexander_dual_space(space(poly_ring(3), 1, [(1, 0, 0)]))


class TestPickVariable:
    def test_star_center(self):
        assert pick_variable(sp(R4, 2, "ab", "ac", "ad")) == 0

    def test_tie_breaks_low(self):
        assert pick_variable(sp(R4, 2, "ab", "ac", "bd", "cd")) == 0

    def test_single_monomial(self):
        assert pick_variable(sp(R4, 3, "abc")) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pick_variable(space(R4, 2, []))


class TestReconstruct:
    def test_worked_example(self):
        q = sqf_ring(4)
        vxi = sp(q, 2, "ab", "bc", "cd", "ad")
        V = reconstruct(vxi, 4, "e")
        assert V.ctx.names == ("a", "b", "c", "d", "e")
        want = sp(V.ctx, 3, "abc", "abd", "acd", "bcd", "abe", "bce", "cde", "ade")
        assert V.basis == want.basis
        assert is_gotzmann_space(V)
        from gotzmann.lex import is_lex_some_order

        assert is_lex_some_order(V) is None

    def test_full_input(self):
        q = sqf_ring(3)
        V = reconstruct(space(q, 1, all_monomials(q, 1)), 3)
        assert is_gotzmann_space(V)
        assert V.dim == binom(3, 2) + 3

    def test_lex_segment_input(self):
        q = sqf_ring(4)
        for k in range(binom(4, 2) + 1):
            V = reconstruct(lex_segment(k, 2, q), 4)
            assert is_gotzmann_space(V)

    def test_non_gotzmann_rejected(self):
        q = sqf_ring(4)
        bad = sp(q, 2, "ab", "ac", "bc")
        assert not is_gotzmann_space(bad)
        with pytest.raises(ValueError):
            reconstruct(bad, 4)

    def test_full_alphabet_ring_rejected(self):
        # every default name is taken, so no ring one variable up can be named
        with pytest.raises(ValueError, match="variable count must be in 0..16, got 17"):
            reconstruct(space(sqf_ring(16), 1, [1]), 0)


class TestStructureSweeps:
    """Exhaustive verification of the decomposition facts over small rings."""

    def test_vhat_gotzmann_for_every_variable(self):
        for n in (2, 3, 4):
            for V in gotzmann_spaces(n, degrees=range(1, n + 1)):
                for i in range(n):
                    assert is_gotzmann_space(decompose(V, i).vhat)

    def test_vxi_gotzmann_or_segment_containment(self):
        for n in (2, 3, 4):
            for V in gotzmann_spaces(n, degrees=range(1, n + 1)):
                for i in range(n):
                    dec = decompose(V, i)
                    q = dec.vhat.ctx
                    if is_gotzmann_space(dec.vxi):
                        continue
                    lxi = lex_segment(dec.vxi.dim, dec.vxi.degree, q)
                    lhat = lex_segment(dec.vhat.dim, dec.vhat.degree, q)
                    assert shadow_up(lxi).basis <= lhat.basis

    def test_chosen_variable_gives_gotzmann_parts(self):
        for n in (2, 3, 4):
            for V in gotzmann_spaces(n, degrees=range(1, n + 1)):
                if not V.basis:
                    continue
                i = pick_variable(V)
                dec = decompose(V, i)
                assert is_gotzmann_space(dec.vhat)
                assert is_gotzmann_space(dec.vxi)
                assert dec.vhat.basis <= shadow_up(dec.vxi).basis

    def test_non_converse_triangle(self):
        V = sp(R4, 2, "ab", "ac", "bc")
        assert not is_gotzmann_space(V)
        dec = decompose(V, 0)
        assert is_gotzmann_space(dec.vhat) and is_gotzmann_space(dec.vxi)

    def test_vxi_can_fail_even_for_gotzmann_input(self):
        V = sp(R5, 3, "abc", "abd", "acd", "bcd", "bce", "bde", "cde")
        assert is_gotzmann_space(V)
        dec = decompose(V, 0)
        q = dec.vxi.ctx
        assert dec.vxi.basis == sp(q, 2, "bc", "bd", "cd").basis
        assert not is_gotzmann_space(dec.vxi)

    def test_dual_decomposition_of_gdual_spaces(self):
        # top and bottom degrees are excluded: there the parts leave the
        # smaller ring entirely and the statement degenerates
        for n in (2, 3, 4, 5):
            ctx = sqf_ring(n)
            for d in range(1, n):
                for V in all_subspaces(ctx, d):
                    if not is_gdual(V):
                        continue
                    witness = False
                    for i in range(n):
                        dec = decompose(V, i)
                        if is_gdual(dec.vhat) and is_gdual(dec.vxi) and \
                                colon_with_n1(dec.vhat).basis <= dec.vxi.basis:
                            witness = True
                            break
                    assert witness

    def test_swap_closed_subspaces_are_trivial(self):
        # a space closed under every variable swap is empty or everything
        for n in (2, 3, 4, 5):
            ctx = sqf_ring(n)
            for d in range(1, n):
                for V in all_subspaces(ctx, d):
                    closed = True
                    for m in V.basis:
                        for i in range(n):
                            if not m >> i & 1:
                                continue
                            for j in range(n):
                                if m >> j & 1 or j == i:
                                    continue
                                if (m ^ (1 << i)) | (1 << j) not in V.basis:
                                    closed = False
                                    break
                            if not closed:
                                break
                        if not closed:
                            break
                    if closed:
                        assert V.dim in (0, binom(n, d))
