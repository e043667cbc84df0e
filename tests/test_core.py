import copy
import pickle
import random
from collections import Counter
from itertools import permutations

import pytest

from gotzmann.core import (
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    _all_monomials,
    _mask_level_bitsets,
    all_monomials,
    binom,
    bitset_masks,
    component_space,
    divides,
    exps_to_mask,
    gen_masks,
    ideal_from_up_set,
    iter_bits,
    mask_bitset,
    mask_to_exps,
    minimalize,
    poly_hilbert_from_sqf,
    poly_ring,
    reflect_bitset,
    shadow_up,
    space,
    sqf_hilbert,
    sqf_ring,
    support_of_exps,
    unit_ideal,
    up_set,
    upper_shadow,
    zero_ideal,
)
from gotzmann.lex import is_lex_segment, is_lex_some_order, sorted_monomials
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import (
    direct_poly_dim,
    divide_by_variable,
    ideal_gens_error,
    minimalize_by_tuples,
    quotient_by_variable,
    random_sqf_ideal,
)

R3 = sqf_ring(3)
R4 = sqf_ring(4)
S3 = poly_ring(3)
S4 = poly_ring(4)


def ideal(text, ctx):
    return parse_ideal_inline(text, ctx)


def mono(text, ctx):
    return parse_monomial(text, ctx)


class TestMinimalize:
    def test_divisor_absorbs_multiple(self):
        I = minimalize([mono("ab", R3), mono("abc", R3)], R3)
        assert I.gens == (mono("ab", R3),)

    def test_antichain_stays(self):
        I = ideal("ab,ac,bd,cd", R4)
        assert len(I.gens) == 4

    def test_empty_is_zero_ideal(self):
        I = minimalize([], R3)
        assert I.is_zero and not I.is_unit

    def test_unit_monomial_wins(self):
        I = minimalize([mono("1", R3), mono("ab", R3)], R3)
        assert I.is_unit

    def test_idempotent(self):
        I = ideal("ab,ac,bd,cd", R4)
        assert minimalize(I.gens, R4) == I

    def test_mixed_degrees_allowed(self):
        I = minimalize([mono("a", S3), mono("bc", S3)], S3)
        assert I.degrees() == (1, 2)

    def test_square_rejected_in_sqf_flavor(self):
        with pytest.raises(ValueError):
            minimalize([(2, 0, 0)], R3)
        minimalize([(2, 0, 0)], S3)  # fine in S

    def test_antichain_invariant_enforced_by_constructor(self):
        with pytest.raises(ValueError):
            MonomialIdeal(R3, (mono("ab", R3), mono("abc", R3)))

    @staticmethod
    def _random_inputs(rng, n, squarefree):
        out = []
        for _ in range(rng.randint(0, 2 * n + 2)):
            mask = rng.randrange(1 << n) if rng.random() < 0.9 else 0
            form = rng.choice(("mask", "tuple", "list"))
            if form == "mask":
                out.append(mask)
                continue
            e = [(mask >> i) & 1 for i in range(n)]
            if not squarefree and n and rng.random() < 0.5:
                e[rng.randrange(n)] += rng.randint(1, 3)
            out.append(tuple(e) if form == "tuple" else e)
        return out

    def test_matches_tuple_oracle(self):
        rng = random.Random(11)
        for trial in range(1500):
            n = rng.randint(0, 9)
            flavor = rng.choice(["S", "R"])
            ctx = poly_ring(n) if flavor == "S" else sqf_ring(n)
            squarefree = flavor == "R" or trial % 2 == 0
            items = self._random_inputs(rng, n, squarefree)
            got = minimalize(items, ctx)
            assert got.gens == minimalize_by_tuples(items, ctx).gens
            assert minimalize(got.gens, ctx) == got

    def test_validation_messages(self):
        ab, ac, abc = (1, 1, 0), (1, 0, 1), (1, 1, 1)
        a2, a2b = (2, 0, 0), (2, 1, 0)
        cases = [
            (R3, (ab, ab), "generators must be distinct"),
            (S3, (a2, a2), "generators must be distinct"),
            (R3, (ab, abc), "generators must form a divisibility antichain"),
            (S3, (abc, ab), "generators must form a divisibility antichain"),
            (S3, (a2, a2b), "generators must form a divisibility antichain"),
            (S3, (a2b, (0, 0, 1), a2), "generators must form a divisibility antichain"),
            (R3, (ac, ab), "generators must be sorted canonically"),
            (R3, (ab, (0, 0, 1)), "generators must be sorted canonically"),
            (S3, ((0, 1, 1), a2), "generators must be sorted canonically"),
            (S3, (a2b, (0, 0, 1)), "generators must be sorted canonically"),
            (R3, (a2,), "generator (2, 0, 0) is not squarefree"),
            (R3, ((1, 1),), "bad generator (1, 1) for 3 variables"),
        ]
        for ctx, gens, message in cases:
            with pytest.raises(ValueError) as err:
                MonomialIdeal(ctx, gens)
            assert str(err.value) == message, (ctx.flavor, gens)
        for items, message in [([a2], "monomial (2, 0, 0) is not squarefree"),
                               ([a2, 8], "monomial (2, 0, 0) is not squarefree"),
                               ([ab, 9, -1], "mask 9 does not fit in 3 variables"),
                               ([(1, 0)], "bad exponent tuple (1, 0) for 3 variables"),
                               # all masks: the first bad one in input order is named
                               ([8], "mask 8 does not fit in 3 variables"),
                               ([3, 8, -1], "mask 8 does not fit in 3 variables"),
                               ([5, -1, 8], "mask -1 does not fit in 3 variables"),
                               ([7, 6, -2], "mask -2 does not fit in 3 variables")]:
            for ctx in (R3, S3) if a2 not in items else (R3,):
                with pytest.raises(ValueError) as err:
                    minimalize(items, ctx)
                assert str(err.value) == message, (ctx.flavor, items)


class TestConstructorOracle:
    """MonomialIdeal accepts and rejects exactly what the docstring rules say."""

    @staticmethod
    def _random_gens(rng, ctx):
        n = ctx.n
        top = 2 if ctx.flavor == "S" or rng.random() < 0.2 else 1
        gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            # mostly valid: the minimal ones, distinct and in canonical order
            gens = [g for g in set(gens) if not any(h != g and divides(h, g) for h in gens)]
            gens.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
        if gens and rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
        if gens and rng.random() < 0.2:
            i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
            gens[i], gens[j] = gens[j], gens[i]
        if rng.random() < 0.1:
            # outside the ring: one entry too many, or a negative entry
            outside = rng.choice(((0,) * (n + 1), (-1,) + (0,) * max(n - 1, 0)))
            gens.insert(rng.randrange(len(gens) + 1), outside)
        return tuple(gens)

    def test_matches_oracle_predicate(self):
        rng = random.Random(31)
        accepted = 0
        for _ in range(4000):
            ctx = rng.choice((poly_ring, sqf_ring))(rng.randint(0, 4))
            gens = self._random_gens(rng, ctx)
            want = ideal_gens_error(ctx, gens)
            try:
                I = MonomialIdeal(ctx, gens)
            except ValueError as err:
                assert str(err) == want, (ctx.flavor, gens)
                continue
            assert want is None, (ctx.flavor, gens)
            squarefree = all(max(e, default=0) <= 1 for e in gens)
            assert I._masks == (tuple(map(exps_to_mask, gens)) if squarefree else None)
            accepted += 1
        assert 1000 < accepted < 3000


class TestRecordedMasks:
    """Squarefree ideals record their generator masks when they are built."""

    def test_record_is_the_masks_of_gens(self):
        rng = random.Random(21)
        for _ in range(400):
            n = rng.randint(0, 8)
            ctx = rng.choice((poly_ring, sqf_ring))(n)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, n + 3))]
            tuples = [mask_to_exps(m, n) for m in masks]
            mixed = [rng.choice(pair) for pair in zip(masks, tuples)]
            want = minimalize_by_tuples(masks, ctx)
            for items in (masks, tuples, mixed, iter(masks)):
                I = minimalize(items, ctx)
                assert I == want
                assert I._masks == tuple(exps_to_mask(e) for e in I.gens)
                assert gen_masks(I) is I._masks
                assert MonomialIdeal(ctx, I.gens)._masks == I._masks
        for ctx in (S3, R3, poly_ring(0), sqf_ring(0)):
            assert unit_ideal(ctx)._masks == (0,)
            assert zero_ideal(ctx)._masks == ()

    def test_properties_match_tuple_definitions(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(0, 6)
            ctx = rng.choice((poly_ring, sqf_ring))(n)
            cap = 1 if ctx.flavor == "R" or rng.random() < 0.5 else 3
            items = [tuple(rng.randint(0, cap) for _ in range(n))
                     for _ in range(rng.randint(0, n + 3))]
            I = minimalize(items, ctx)
            assert I.squarefree == all(max(e, default=0) <= 1 for e in I.gens)
            assert (I._masks is None) == (not I.squarefree)
            support = 0
            for e in I.gens:
                support |= support_of_exps(e)
            assert I.support_mask == support
            assert I.degrees() == tuple(sorted({sum(e) for e in I.gens}))
            assert I.has_linear_gen == any(sum(e) == 1 for e in I.gens)

    def test_gen_masks_rejects_non_squarefree(self):
        I = minimalize([(0, 1, 1), (2, 0, 0)], S3)
        assert not I.squarefree and I._masks is None
        with pytest.raises(ValueError, match="not squarefree: exponent 2 at index 0"):
            gen_masks(I)

    def test_record_ignored_by_equality_and_kept_by_copies(self):
        for I in (ideal("ab,ac,bd,cd", R4), ideal("a*a,b*c", S3), ideal("a,b*c", S3),
                  zero_ideal(S3), unit_ideal(R3)):
            J = MonomialIdeal(I.ctx, I.gens)
            object.__setattr__(J, "_masks", ())
            assert J == I and hash(J) == hash(I)
            assert "_masks" not in repr(I)
            for K in (pickle.loads(pickle.dumps(I)), copy.deepcopy(I), copy.copy(I)):
                assert K == I and hash(K) == hash(I)
                assert K._masks == I._masks
            assert not hasattr(I, "__dict__")


class TestMaskLevelBitsets:
    def test_levels_and_without(self):
        for n in range(11):
            levels, without = _mask_level_bitsets(n)
            assert len(levels) == n + 1 and len(without) == n
            for k, level in enumerate(levels):
                assert level.bit_count() == binom(n, k)
                assert level == sum(1 << m for m in range(1 << n) if m.bit_count() == k)
            for i, rest in enumerate(without):
                assert rest == sum(1 << m for m in range(1 << n) if not m >> i & 1)


class TestUpSetBitsets:
    def test_up_set_is_every_multiple(self):
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(0, 8)
            masks = {rng.randrange(1 << n) for _ in range(rng.randint(0, 5))}
            want = {m for m in range(1 << n) if any(g & m == g for g in masks)}
            assert bitset_masks(up_set(masks, n)) == sorted(want)

    def test_reflection_sends_m_to_its_complement(self):
        for n in range(9):
            full = (1 << n) - 1
            for m in range(1 << n):
                assert reflect_bitset(1 << m, n) == 1 << (full ^ m)
        rng = random.Random(18)
        bits = rng.getrandbits(1 << 8)
        assert reflect_bitset(reflect_bitset(bits, 8), 8) == bits


class TestComponentSpace:
    def test_unique_multiple_in_R(self):
        V = component_space(ideal("ab", R3), 3)
        assert V.basis == space(R3, 3, [mono("abc", R3)]).basis

    def test_poly_component_by_enumeration(self):
        # oracle: direct enumeration of the degree-3 multiples of ab in S
        I = ideal("ab", S3)
        expected = {m for m in all_monomials(S3, 3) if all(g <= x for g, x in zip((1, 1, 0), m))}
        V = component_space(I, 3)
        assert V.basis == frozenset(expected)
        assert V.dim == 3
        assert V.basis == {mono("a*a*b", S3), mono("a*b*b", S3), mono("abc", S3)}

    def test_four_cycle_component_matches_shadow(self):
        I = ideal("ab,ac,bd,cd", R4)
        V = component_space(I, 3)
        assert V.basis == shadow_up(component_space(I, 2)).basis
        assert V.dim == 4

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            component_space(ideal("ab", R3), -1)


class TestMonomialSpaceValidation:
    def test_validation_messages(self):
        cases = [
            (R3, -1, set(), "degree must be nonnegative"),
            (sqf_ring(2), 1, {4}, "mask 4 does not fit in 2 variables"),
            (R3, 1, {-1}, "mask -1 does not fit in 3 variables"),
            (R3, 1, {(1, 0, 0)}, "basis representation does not match ring flavor"),
            (R3, 2, {1}, "basis element 1 is not of degree 2"),
            (poly_ring(2), 1, {(1, 0, 0)}, "bad exponent tuple (1, 0, 0) for 2 variables"),
            (S3, 1, {(2, -1, 0)}, "bad exponent tuple (2, -1, 0) for 3 variables"),
            (S3, 1, {1}, "basis representation does not match ring flavor"),
            (S3, 2, {(1, 0, 0), (1, 1, 0)}, "basis element (1, 0, 0) is not of degree 2"),
        ]
        for ctx, d, basis, message in cases:
            with pytest.raises(ValueError) as err:
                MonomialSpace(ctx, d, frozenset(basis))
            assert str(err.value) == message, (ctx.flavor, d, basis)


class TestShadow:
    def test_four_cycle_shadow(self):
        V = space(R4, 2, [mono(t, R4) for t in ("ab", "ac", "bd", "cd")])
        W = shadow_up(V)
        assert W.basis == space(R4, 3, [mono(t, R4) for t in ("abc", "abd", "acd", "bcd")]).basis

    def test_star_shadow(self):
        V = space(R4, 2, [mono(t, R4) for t in ("ab", "ac", "ad")])
        assert shadow_up(V).dim == 3

    def test_empty_shadow(self):
        V = space(R4, 2, [])
        assert shadow_up(V).dim == 0

    def test_top_degree_shadow_vanishes_in_R(self):
        V = space(R3, 3, [mono("abc", R3)])
        assert shadow_up(V).dim == 0

    def test_monotone(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 6)
            ctx = sqf_ring(n)
            d = rng.randint(0, n)
            mons = all_monomials(ctx, d)
            big = rng.sample(mons, rng.randint(0, len(mons)))
            small = rng.sample(big, rng.randint(0, len(big)))
            inner = shadow_up(MonomialSpace(ctx, d, frozenset(small)))
            outer = shadow_up(MonomialSpace(ctx, d, frozenset(big)))
            assert inner.basis <= outer.basis


class TestMonomialKernel:
    def test_upper_shadow_matches_brute_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 8)
            d = rng.randint(0, n)
            level = [m for m in range(1 << n) if m.bit_count() == d]
            masks = set(rng.sample(level, rng.randint(0, len(level))))
            want = {m for m in range(1 << n) if m.bit_count() == d + 1
                    and any(s & ~m == 0 for s in masks)}
            assert set(bitset_masks(upper_shadow(mask_bitset(masks), n))) == want
            V = MonomialSpace(sqf_ring(n), d, frozenset(masks))
            assert shadow_up(V).basis == want

    def test_ideal_from_up_set_round_trip(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(0, 8)
            I = random_sqf_ideal(rng, n, rng.choice("SR"))
            assert ideal_from_up_set(up_set(gen_masks(I), n), I.ctx) == I

    def test_level_missing_shadow_raises(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 7)
            I = random_sqf_ideal(rng, n, "R")
            levels = [set(component_space(I, d).basis) for d in range(n + 1)]
            below = [d for d in range(n) if levels[d]]
            if not below:
                continue
            d = rng.choice(below)
            m = rng.choice(sorted(levels[d]))
            free = [i for i in range(n) if not m >> i & 1]
            if not free:
                continue
            bits = mask_bitset(x for level in levels for x in level)
            bits &= ~(1 << (m | 1 << rng.choice(free)))
            with pytest.raises(InvariantViolation, match=f"^degree {d + 1} "):
                ideal_from_up_set(bits, I.ctx)

    def test_sorted_monomials_relabel_identity_listing(self):
        rng = random.Random(14)
        for n in range(7):
            orders = list(permutations(range(n)))
            for perm in rng.sample(orders, min(len(orders), 12)):
                for ctx in (sqf_ring(n), poly_ring(n)):
                    for d in range(n + 1 if ctx.flavor == "R" else 4):
                        identity = all_monomials(ctx, d)
                        if ctx.flavor == "R":
                            want = tuple(sum(1 << perm[i] for i in iter_bits(m))
                                         for m in identity)
                        else:
                            want = tuple(tuple(e[perm.index(v)] for v in range(n))
                                         for e in identity)
                        assert sorted_monomials(ctx, d, perm) == want
                        if perm == tuple(range(n)):
                            assert sorted_monomials(ctx, d, perm) is identity

    def test_listing_cache_holds_no_orders(self):
        R8 = sqf_ring(8)
        V = space(R8, 2, [mono("ab", R8), mono("cd", R8)])
        all_monomials(R8, 2)
        before = _all_monomials.cache_info().currsize
        assert is_lex_some_order(V) is None
        rng = random.Random(15)
        for _ in range(200):
            assert not is_lex_segment(V, tuple(rng.sample(range(8), 8)))
        assert _all_monomials.cache_info().currsize == before


class TestHilbert:
    def test_single_quadric(self):
        assert sqf_hilbert(ideal("ab", R3)) == (0, 0, 1, 1)

    def test_unit_ideal(self):
        assert sqf_hilbert(unit_ideal(R4)) == tuple(binom(4, d) for d in range(5))

    def test_four_cycle(self):
        assert sqf_hilbert(ideal("ab,ac,bd,cd", R4)) == (0, 0, 4, 4, 1)

    def test_non_squarefree_rejected(self):
        I = minimalize([(2, 0, 0)], S3)
        with pytest.raises(ValueError):
            sqf_hilbert(I)

    def test_transform_agrees_with_direct_count(self):
        I = ideal("ab", S3)
        sqf = sqf_hilbert(I)
        assert poly_hilbert_from_sqf(sqf, 3) == 3 == direct_poly_dim(I, 3)

    def test_degree_zero(self):
        assert poly_hilbert_from_sqf(sqf_hilbert(ideal("ab", S3)), 0) == 0
        assert poly_hilbert_from_sqf(sqf_hilbert(unit_ideal(S3)), 0) == 1

    def test_unit_ideal_gives_full_ring_dimension(self):
        sqf = sqf_hilbert(unit_ideal(S4))
        for d in range(8):
            assert poly_hilbert_from_sqf(sqf, d) == binom(4 + d - 1, d)

    def test_transform_identity_on_random_ideals(self):
        # 200 random squarefree ideals, all degrees through 8
        rng = random.Random(20250808)
        for _ in range(200):
            n = rng.randint(1, 6)
            I = random_sqf_ideal(rng, n)
            sqf = sqf_hilbert(I)
            for d in range(9):
                assert poly_hilbert_from_sqf(sqf, d) == direct_poly_dim(I, d)


class TestGeneratorCounts:
    def test_recomputation_from_component_growth(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 5)
            flavor = rng.choice(["S", "R"])
            I = random_sqf_ideal(rng, n, flavor)
            counts = Counter(map(sum, I.gens))
            top = max(I.degrees(), default=0)
            for d in range(top + 2):
                comp = component_space(I, d)
                prev = component_space(I, d - 1) if d else None
                grown = shadow_up(prev).dim if prev else 0
                assert counts.get(d, 0) == comp.dim - grown


class TestComponentConsistency:
    def test_containment_and_equality_condition(self):
        rng = random.Random(4)
        for _ in range(80):
            n = rng.randint(1, 5)
            flavor = rng.choice(["S", "R"])
            I = random_sqf_ideal(rng, n, flavor)
            top = max(I.degrees(), default=0)
            for d in range(top + 2):
                lower = shadow_up(component_space(I, d))
                upper = component_space(I, d + 1)
                assert lower.basis <= upper.basis
                has_gen = any(sum(e) == d + 1 for e in I.gens)
                assert (lower.basis == upper.basis) == (not has_gen)


class TestDivideAndQuotient:
    def test_divide_after_minimalizing(self):
        I = minimalize([mono("ab", R3), mono("abc", R3)], R3)
        assert divide_by_variable(I, 0) == ideal("b", R3)

    def test_divide_star(self):
        I = ideal("ab,ac,ad", R4)
        assert divide_by_variable(I, 0) == ideal("b,c,d", R4)

    def test_divide_requires_divisibility(self):
        with pytest.raises(ValueError):
            divide_by_variable(ideal("a,bc", R3), 0)

    def test_quotient_drops_variable(self):
        Q = quotient_by_variable(ideal("a,bc", R3), 0)
        assert Q.ctx.n == 2 and Q.ctx.names == ("b", "c")
        assert Q == parse_ideal_inline("bc", Q.ctx)

    def test_quotient_can_be_zero(self):
        Q = quotient_by_variable(ideal("ab", R3), 0)
        assert Q.is_zero

    def test_quotient_keeps_unit(self):
        Q = quotient_by_variable(unit_ideal(R3), 1)
        assert Q.is_unit
