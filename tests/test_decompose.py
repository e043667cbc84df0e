import importlib
import random
import re

import pytest

from gotzmann.core import (
    SQF,
    InvariantViolation,
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
    Decomposition,
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
from gotzmann.lex import is_gotzmann_ideal, is_gotzmann_space, lex_segment, minimal_growth
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import (
    all_subspaces,
    colon_by_reflection,
    compress_by_decompose,
    dual_by_components,
    gdual_by_components,
    gotzmann_spaces,
    growth_equality_by_decompose,
    random_space,
    random_sqf_ideal,
    reconstruct_by_shadow_up,
)

R4 = sqf_ring(4)
R5 = sqf_ring(5)


def ideal(text, ctx):
    return parse_ideal_inline(text, ctx)


def sp(ctx, d, *texts):
    return space(ctx, d, [parse_monomial(t, ctx) for t in texts])


def set_shadow_size(V):
    """Number of squarefree multiples m * x_j of the basis, as a set of masks."""
    n = V.ctx.n
    return len({m | 1 << j for m in V.basis for j in range(n) if not m >> j & 1})


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

    @pytest.mark.parametrize("split", [decompose, compress, growth_equality])
    def test_split_checks_in_order(self, split):
        # ring flavor, then the index (an int exactly, then its range), then
        # the degree, each with its own message
        S4 = poly_ring(4)
        cases = [
            (space(S4, 1, [(1, 0, 0, 0)]), True, "this operation lives in the squarefree ring"),
            (sp(R4, 2, "ab"), True, "variable index must be an int, got True"),
            (sp(R4, 2, "ab"), 1.0, "variable index must be an int, got 1.0"),
            (sp(R4, 2, "ab"), 0.5, "variable index must be an int, got 0.5"),
            (space(R4, 0, [0]), 1.0, "variable index must be an int, got 1.0"),
            (space(R4, 0, [0]), 4, "variable index 4 out of range"),
            (sp(R4, 2, "ab"), -1, "variable index -1 out of range"),
            (space(R4, 0, [0]), 0, "decomposition needs degree at least one"),
        ]
        for V, i, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                split(V, i)

    def test_reassemble_validates_a_callers_parts(self):
        q = sqf_ring(3)
        dec = Decomposition(0, R4, space(q, 2, [0b011]), space(q, 2, [0b110]))
        with pytest.raises(ValueError, match="^basis element 13 is not of degree 2$"):
            reassemble(dec)


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
            eq = growth_equality(V, i)
            assert eq.lhs == shadow_up(V).dim
            assert eq.rhs == shadow_up(compress(V, i, order)).dim


class TestShadowSizes:
    """is_gotzmann_space and growth_equality read shadow sizes off bitsets;
    both agree with shadows built as sets of masks."""

    @staticmethod
    def _check(V, rng):
        ctx = V.ctx
        size = set_shadow_size(V)
        assert is_gotzmann_space(V) == (size == minimal_growth(V.dim, V.degree, ctx))
        if V.degree < 1:
            return
        for i in range(ctx.n):
            eq = growth_equality(V, i)
            for order in (None, tuple(rng.sample(range(ctx.n - 1), ctx.n - 1))):
                assert (eq.lhs, eq.rhs) == (size, set_shadow_size(compress(V, i, order))), \
                    (V, i, order)

    def test_every_space_up_to_four_variables(self):
        rng = random.Random(41)
        spaces = 0
        for n in range(5):
            for d in range(n + 1):
                for V in all_subspaces(sqf_ring(n), d):
                    self._check(V, rng)
                    spaces += 1
        assert spaces == 2 + 4 + 8 + 20 + 100  # sum of 2^C(n, d)

    def test_random_spaces_up_to_twelve_variables(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(5, 12)
            self._check(random_space(rng, sqf_ring(n), rng.randint(0, n)), rng)

    def test_growth_equality_builds_no_lex_segment(self, monkeypatch):
        rng = random.Random(43)
        cases = [(random_space(rng, sqf_ring(n), rng.randint(1, n)), rng.randrange(n))
                 for n in range(1, 11) for _ in range(6)]
        want = [(set_shadow_size(V), set_shadow_size(compress(V, i))) for V, i in cases]

        def refuse(*args):
            raise AssertionError("growth_equality built a lex segment")

        # the package exports the function decompose, which hides the module
        monkeypatch.setattr(importlib.import_module("gotzmann.decompose"), "lex_segment", refuse)
        assert [(eq.lhs, eq.rhs) for eq in (growth_equality(V, i) for V, i in cases)] == want


class TestSplitRoutesMatchOracles:
    """compress and growth_equality count the x_i-split, colon_with_n1 takes a
    lower shadow and reconstruct makes one shadow for its test and its part;
    the routes that build each part (tests/support.py) give the same spaces,
    the same diagnostics and the same errors."""

    @staticmethod
    def _check(V, rng):
        n, d = V.ctx.n, V.degree
        if d >= 1:
            assert colon_with_n1(V) == colon_by_reflection(V)
            for i in range(n):
                assert growth_equality(V, i) == growth_equality_by_decompose(V, i)
                for order in (None, tuple(rng.sample(range(n - 1), n - 1))):
                    assert compress(V, i, order) == compress_by_decompose(V, i, order)
        for i in range(n + 1):
            try:
                want = reconstruct_by_shadow_up(V, i)
            except ValueError as err:
                with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                    reconstruct(V, i)
            else:
                assert reconstruct(V, i) == want

    def test_every_gotzmann_space_up_to_five_variables(self):
        rng = random.Random(44)
        spaces = 0
        for n in range(6):
            for V in gotzmann_spaces(n):
                self._check(V, rng)
                spaces += 1
        assert spaces == 752

    def test_random_spaces_up_to_twelve_variables(self):
        rng = random.Random(45)
        for _ in range(80):
            n = rng.randint(1, 12)
            ctx, d = sqf_ring(n), rng.randint(0, n)
            V = random_space(rng, ctx, d)
            if rng.random() < 0.5:  # a lex segment: Gotzmann, so reconstruct runs
                V = lex_segment(rng.randint(0, binom(n, d)), d, ctx,
                                tuple(rng.sample(range(n), n)))
            self._check(V, rng)


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

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="^colon needs degree at least one$"):
            colon_with_n1(space(R4, 0, [0]))

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

    def test_degree_above_n_rejected(self):
        with pytest.raises(ValueError, match="^duality needs a degree within the ring$"):
            alexander_dual_space(space(R4, 5, []))

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

    def test_gdual_is_gotzmann_of_the_dual(self):
        ideals = [I for n in range(6) for I in enumerate_antichains(n, SQF)]
        assert len(ideals) == 7780
        rng = random.Random(2512)
        ideals += [random_sqf_ideal(rng, rng.randint(0, 12), "R", 16) for _ in range(200)]
        seen = set()
        for I in ideals:
            got = is_gdual_ideal(I)
            assert got == is_gotzmann_ideal(alexander_dual_ideal(I)), I
            seen.add(got)
        assert seen == {True, False}

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

    def test_ring_with_no_variables_rejected(self):
        R0 = sqf_ring(0)
        with pytest.raises(ValueError,
                           match="^cannot pick a variable of a ring with no variables$"):
            pick_variable(space(R0, 0, [0]))
        with pytest.raises(ValueError, match="^cannot pick a variable of the zero space$"):
            pick_variable(space(R0, 0, []))


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

    def test_insertion_index_out_of_range(self):
        vxi = sp(sqf_ring(4), 2, "ab", "bc", "cd", "ad")
        with pytest.raises(ValueError, match="^insertion index 5 out of range$"):
            reconstruct(vxi, 5)

    def test_insertion_index_must_be_an_int(self):
        vxi = sp(sqf_ring(4), 2, "ab", "bc", "cd", "ad")
        for i in (True, 1.0, 4.0, "1"):
            message = f"insertion index must be an int, got {i!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                reconstruct(vxi, i)

    def test_full_alphabet_ring_rejected(self):
        # every default name is taken, so no ring one variable up can be named
        with pytest.raises(ValueError, match="variable count must be in 0..16, got 17"):
            reconstruct(space(sqf_ring(16), 1, [1]), 0)

    def test_seventeen_variables_rejected_after_the_input_test(self):
        V = lex_segment(3, 2, sqf_ring(16))
        for i in (0, 16):
            with pytest.raises(ValueError, match="^variable count must be in 0..16, got 17$"):
                reconstruct(V, i, "q")
        with pytest.raises(ValueError, match="^reconstruction needs a Gotzmann space$"):
            reconstruct(space(sqf_ring(16), 2, [0b11, 1 << 14 | 1 << 15]), 0, "q")

    def test_sixteen_variables_match_the_oracle(self):
        # q.n = 15: x_i inserted at the ends and inside, the result on 16 variables
        rng = random.Random(47)
        q = sqf_ring(15)
        for d in (0, 1, 2, 3, 7, 14, 15):
            for _ in range(3):
                order = tuple(rng.sample(range(15), 15))
                V = lex_segment(rng.randint(0, min(binom(15, d), 300)), d, q, order)
                for i in (0, rng.randint(1, 14), 15):
                    got = reconstruct(V, i)
                    assert got.ctx.n == 16 and got == reconstruct_by_shadow_up(V, i), (d, i)

    def test_rebuilt_space_is_tested_against_the_bound(self, monkeypatch):
        # a bound one higher in the rebuilt degree only: the assertion fires
        module = importlib.import_module("gotzmann.decompose")
        bound = module.minimal_growth
        monkeypatch.setattr(module, "minimal_growth",
                            lambda dim, d, ctx: bound(dim, d, ctx) + (d == 3))
        vxi = sp(sqf_ring(4), 2, "ab", "bc", "cd", "ad")
        with pytest.raises(InvariantViolation, match="^reconstruction produced a non-Gotzmann space$"):
            reconstruct(vxi, 4, "e")


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
