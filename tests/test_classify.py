import random
from itertools import permutations

import pytest

from gotzmann.classify import (
    SupernovaForm,
    canonicalize,
    format_supernova,
    recognize_supernova,
    supernova_to_ideal,
)
from gotzmann.core import poly_ring, unit_ideal, zero_ideal
from gotzmann.lex import is_gotzmann_ideal
from gotzmann.counting import enumerate_antichains, enumerate_gotzmann
from gotzmann.textio import parse_ideal_inline
from support import FacetComplex, facet_complex_of, is_star_shaped, is_supernova_complex

S3 = poly_ring(3)
S4 = poly_ring(4)
S5 = poly_ring(5)


def ideal(text, ctx):
    return parse_ideal_inline(text, ctx)


def form(*stages, unit=False):
    return SupernovaForm(tuple(stages), unit=unit)


class TestSupernovaToIdeal:
    def test_single_star_stage(self):
        f = form((0b001, 0b110))  # a * (b, c)
        assert supernova_to_ideal(f, S3) == ideal("ab,ac", S3)

    def test_unit_first_monomial(self):
        f = form((0, 0b001), (0b010, 0b100))  # (a) + b*(c)
        assert supernova_to_ideal(f, S3) == ideal("a,bc", S3)

    def test_nested_sum(self):
        f = form((0b0001, 0b0010), (0b0100, 0b1000))  # a*(b) + a*c*(d)
        assert supernova_to_ideal(f, S4) == ideal("ab,acd", S4)

    def test_overlapping_supports_rejected(self):
        with pytest.raises(ValueError):
            form((0b001, 0b011))
        with pytest.raises(ValueError):
            form((0b001, 0b010), (0b001, 0b100))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            form((0b001, 0))

    def test_trivial_forms(self):
        assert supernova_to_ideal(form(), S3).is_zero
        assert supernova_to_ideal(form(unit=True), S3).is_unit

    def test_variables_must_fit_ring(self):
        with pytest.raises(ValueError, match="form uses variables outside the ring"):
            supernova_to_ideal(form((0b1000, 0b0001)), S3)


class TestRecognize:
    def test_star(self):
        f = recognize_supernova(ideal("ab,ac,ad", S4))
        assert f == form((0b0001, 0b1110))

    def test_triangle_fails(self):
        assert recognize_supernova(ideal("ab,ac,bc", S3)) is None

    def test_strip_then_recurse(self):
        f = recognize_supernova(ideal("a,bc", S3))
        assert f is not None
        assert supernova_to_ideal(f, S3) == ideal("a,bc", S3)

    def test_trivial_ideals(self):
        assert recognize_supernova(zero_ideal(S3)) == form()
        assert recognize_supernova(unit_ideal(S3)) == form(unit=True)

    def test_round_trip_over_generated_forms(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 6)
            ctx = poly_ring(n)
            pool = list(range(n))
            rng.shuffle(pool)
            stages = []
            first = True
            while pool:
                m_size = rng.randint(0 if first else 1, len(pool))
                if not first and m_size == 0:
                    break
                m = pool[:m_size]
                rest = pool[m_size:]
                if not rest:
                    break
                b_size = rng.randint(1, len(rest))
                stages.append((sum(1 << i for i in m), sum(1 << i for i in rest[:b_size])))
                pool = rest[b_size:]
                first = False
            if not stages:
                continue
            f = SupernovaForm(tuple(stages))
            I = supernova_to_ideal(f, ctx)
            g = recognize_supernova(I)
            assert g is not None
            assert supernova_to_ideal(g, ctx) == I

    def test_rejects_non_squarefree(self):
        from gotzmann.core import minimalize

        with pytest.raises(ValueError):
            recognize_supernova(minimalize([(2, 0, 0)], S3))


class TestFormatting:
    def test_nested_product_notation(self):
        f = form((0b00001, 0b00110), (0b01000, 0b10000))
        assert format_supernova(f, S5) == "a*(b,c) + a*d*(e)"

    def test_pure_block(self):
        assert format_supernova(form((0, 0b011)), S3) == "(a,b)"

    def test_trivial(self):
        assert format_supernova(form(), S3) == "0"
        assert format_supernova(form(unit=True), S3) == "1"


class TestComplexes:
    def test_star_shaped_star(self):
        h = FacetComplex(4, (0b0011, 0b0101, 0b1001))
        assert is_star_shaped(h)

    def test_four_cycle_not_star_shaped(self):
        h = FacetComplex(4, (0b0011, 0b0110, 0b1100, 0b1001))
        assert not is_star_shaped(h)

    def test_star_shaped_needs_pure(self):
        with pytest.raises(ValueError):
            is_star_shaped(FacetComplex(3, (0b001, 0b110)))

    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            FacetComplex(3, (0b001, 0b011))

    def test_repeated_facet_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FacetComplex(3, (0b011, 0b011))
        with pytest.raises(ValueError, match="distinct"):
            FacetComplex(4, (0b0011, 0b1100, 0b0011))

    def test_supernova_complex_from_forms(self):
        rng = random.Random(5)
        count = 0
        for I in enumerate_gotzmann(4):
            if I.is_zero or I.is_unit:
                continue
            assert is_supernova_complex(facet_complex_of(I))
            count += 1
        assert count == 94

    def test_four_cycle_not_supernova(self):
        h = FacetComplex(4, (0b0011, 0b0110, 0b1100, 0b1001))
        assert not is_supernova_complex(h)

    def test_size_gaps_impose_no_constraint(self):
        # facets of sizes 1 and 3 only; the missing size-2 level is skipped
        h = FacetComplex(4, (0b0001, 0b1110))
        assert is_supernova_complex(h)

    def test_pure_form_images_are_star_shaped(self):
        # a single-stage form has equal-degree generators and a common face
        f = form((0b00011, 0b11100))
        I = supernova_to_ideal(f, S5)
        assert is_star_shaped(facet_complex_of(I))

    def test_supernova_matches_recognizer_on_antichains(self):
        for I in enumerate_antichains(4, flavor="S"):
            if I.is_zero or I.is_unit:
                continue
            assert (recognize_supernova(I) is not None) == \
                is_supernova_complex(facet_complex_of(I))


class TestCanonicalize:
    def test_relabeled_ideals_share_keys(self):
        assert canonicalize(ideal("bd,bc", S4)) == canonicalize(ideal("ac,ad", S4))

    def test_distinct_ideals_differ(self):
        assert canonicalize(ideal("ab", S3)) != canonicalize(ideal("a", S3))

    def test_set_equality(self):
        assert canonicalize(ideal("ab,ac,bd,cd", S4)) == canonicalize(ideal("ac,ab,cd,bd", S4))

    def test_orbit_invariance_random(self):
        from gotzmann.core import gen_masks, iter_bits, mask_to_exps, minimalize
        from support import random_sqf_ideal

        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 5)
            ctx = poly_ring(n)
            I = random_sqf_ideal(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = minimalize(
                [mask_to_exps(sum(1 << perm[i] for i in range(n) if m >> i & 1), n)
                 for m in gen_masks(I)], ctx)
            least = min(tuple(sorted(sum(1 << p[i] for i in iter_bits(m)) for m in gen_masks(I)))
                        for p in permutations(range(n)))
            assert canonicalize(I) == canonicalize(relabeled) == least

    def test_guard_on_large_rings(self):
        from gotzmann.core import minimalize

        for I, message in ((zero_ideal(poly_ring(9)), "limited to 7 variables"),
                           (zero_ideal(poly_ring(8)), "limited to 7 variables"),
                           (minimalize([(2, 0, 0), (0, 1, 1)], S3), "squarefree")):
            with pytest.raises(ValueError, match=message):
                canonicalize(I)


class TestClassificationEquivalence:
    def test_equivalence_up_to_five_variables(self):
        for n in range(6):
            for I in enumerate_antichains(n, flavor="S"):
                gotz = is_gotzmann_ideal(I)
                f = recognize_supernova(I)
                assert gotz == (f is not None)
                if f is not None:
                    assert supernova_to_ideal(f, I.ctx) == I

    def test_reduction_by_division(self):
        from support import contained_in_variable, divide_by_variable

        for n in range(1, 6):
            for I in enumerate_gotzmann(n):
                if I.is_zero or I.is_unit:
                    continue
                assert is_gotzmann_ideal(I)
                for i in range(n):
                    if contained_in_variable(I, i):
                        assert is_gotzmann_ideal(divide_by_variable(I, i))

    def test_reduction_by_quotient(self):
        from support import quotient_by_variable

        for n in range(1, 6):
            one_vars = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            for I in enumerate_gotzmann(n):
                if I.is_zero or I.is_unit:
                    continue
                for i, v in enumerate(one_vars):
                    if I.contains(v):
                        assert is_gotzmann_ideal(quotient_by_variable(I, i))
