import inspect
import os
from collections import Counter
from itertools import combinations

import pytest

from gotzmann import counting
from gotzmann.cli import main
from gotzmann.core import InvariantViolation, _ideal_from_antichain, gen_masks, poly_ring, sqf_ring
from gotzmann.counting import (
    OSP_MAX_VARS,
    WITH_LINEAR,
    WITHOUT_LINEAR,
    OrderedSetPartition,
    _antichain_walk,
    _supernova_signatures,
    count_table,
    count_up_to_symmetry,
    enumerate_antichains,
    enumerate_gotzmann,
    enumerate_osp,
    full_support_series,
    gotzmann_count_series,
    osp_to_ideal,
)
from gotzmann.classify import (
    SupernovaForm,
    canonicalize,
    recognize_supernova,
    stage_generators,
    supernova_to_ideal,
)
from gotzmann.lex import _grows_at, is_gotzmann_ideal
from gotzmann.textio import parse_ideal_inline

from support import (
    cut_walk_growth_tests,
    full_support_class,
    gotzmann_by_sorting,
    has_linear_gen,
    osp_by_frozensets,
    osp_image_by_minimalize,
    supernova_generator_sets_by_submasks,
)

GOTZMANN_COUNTS = [2, 3, 6, 19, 96, 669]
ANTICHAIN_COUNTS = [2, 3, 6, 20, 168, 7581]
R_GOTZMANN_COUNTS = [2, 3, 6, 20, 149, 3882]


def osp(*blocks):
    """A partition from blocks given as sets of 1-based elements."""
    return OrderedSetPartition(tuple(sum(1 << (v - 1) for v in b) for b in blocks))


class TestAntichains:
    def test_counts(self):
        for n in range(5):
            assert sum(1 for _ in enumerate_antichains(n)) == ANTICHAIN_COUNTS[n]

    def test_two_variable_ideals_explicitly(self):
        ctx = poly_ring(2)
        got = {I.gens for I in enumerate_antichains(2)}
        want = {parse_ideal_inline(t, ctx).gens for t in ("0", "1", "a", "b", "ab", "a,b")}
        assert got == want

    def test_each_ideal_distinct(self):
        seen = list(enumerate_antichains(4))
        assert len({I.gens for I in seen}) == len(seen) == 168

    def test_every_antichain_exactly_once(self):
        # oracle: every family of subsets of [n], kept when no member contains another
        for n in range(5):
            brute = Counter()
            for pick in range(1 << (1 << n)):
                family = [m for m in range(1 << n) if pick >> m & 1]
                if not any(a & b in (a, b) for a, b in combinations(family, 2)):
                    brute[frozenset(family)] += 1
            for flavor in "SR":
                got = Counter(frozenset(gen_masks(I)) for I in enumerate_antichains(n, flavor))
                assert got == brute, (n, flavor)

    def test_guard(self):
        with pytest.raises(ValueError):
            next(enumerate_antichains(6))

    def test_bad_arguments_raise_at_the_call(self):
        # no next(): the checks run before the walk is first advanced
        for args in ((3, "X"), (-1,), (6,), (-1, "R"), (6, "R")):
            with pytest.raises(ValueError):
                enumerate_antichains(*args)

    def test_unknown_flavor(self):
        for flavor in ("X", "s", "r", "", None):
            with pytest.raises(ValueError, match="^flavor must be 'S' or 'R', got "):
                next(enumerate_antichains(3, flavor))


class TestPersistenceCutWalk:
    """The cut walk against the unpruned filter of every antichain."""

    def test_matches_filtered_antichains(self):
        for flavor, ring, counts in (("S", poly_ring, GOTZMANN_COUNTS),
                                     ("R", sqf_ring, R_GOTZMANN_COUNTS)):
            for n in range(6):
                got = [frozenset(gens) for gens in _antichain_walk(n, ring(n))]
                want = {frozenset(gen_masks(A)) for A in enumerate_antichains(n, flavor)
                        if is_gotzmann_ideal(A)}
                assert set(got) == want, (flavor, n)
                assert len(got) == len(want) == counts[n], (flavor, n)

    def test_growth_tests_match_whole_level_shadows(self, monkeypatch):
        # the same _grows_at tests in the same order as a walk that takes the
        # shadow of each whole level
        seen = []

        def record(counts, shadow, d, ctx):
            seen.append((tuple(counts), shadow, d))
            return _grows_at(counts, shadow, d, ctx)

        monkeypatch.setattr(counting, "_grows_at", record)
        for ring in (poly_ring, sqf_ring):
            for n in range(6):
                seen.clear()
                sum(1 for _ in _antichain_walk(n, ring(n)))
                assert seen == cut_walk_growth_tests(n, ring(n)), (ring, n)

    @pytest.mark.skipif(os.environ.get("GOTZ_SLOW_TESTS") != "1",
                        reason="set GOTZ_SLOW_TESTS=1 to run the n = 6 walks")
    def test_six_variables(self):
        # 7,828,354 antichains put the unpruned filter out of reach here
        walked = sum(1 for _ in _antichain_walk(6, poly_ring(6)))
        assert walked == len(enumerate_gotzmann(6)) == 5754
        assert sum(1 for _ in _antichain_walk(6, sqf_ring(6))) == 505330


class TestEnumerateGotzmann:
    def test_counts(self):
        for n in range(6):
            assert len(enumerate_gotzmann(n)) == GOTZMANN_COUNTS[n]

    def test_three_variables_misses_only_the_triangle(self):
        ctx = poly_ring(3)
        gotz = {I.gens for I in enumerate_gotzmann(3)}
        every = {I.gens for I in enumerate_antichains(3)}
        missing = every - gotz
        assert missing == {parse_ideal_inline("ab,ac,bc", ctx).gens}

    def test_all_outputs_are_gotzmann(self):
        for n in range(5):
            for I in enumerate_gotzmann(n):
                assert is_gotzmann_ideal(I)

    def test_deduplicated(self):
        ideals = enumerate_gotzmann(4)
        assert len({I.gens for I in ideals}) == len(ideals)

    def test_order_matches_sorting_by_exponent_tuples(self):
        # the integer sort key against the tuple comparison it stands for
        for n in range(7):
            ideals = enumerate_gotzmann(n)
            want = gotzmann_by_sorting(n)
            assert [I.gens for I in ideals] == [I.gens for I in want], n
            assert [gen_masks(I) for I in ideals] == [gen_masks(I) for I in want], n

    def test_generator_sets_match_the_submask_walk(self):
        # the walk keeps one form per set: a list with no repeats, holding
        # every set of the walk over all forms
        for n in range(8):
            sets = counting._supernova_generator_sets(n)
            assert type(sets) is list and len(set(sets)) == len(sets), n
            assert set(sets) == supernova_generator_sets_by_submasks(n), n

    def test_walked_sets_are_the_recognized_forms(self):
        # each walked set is an ideal whose recognized stages expand back to
        # exactly its masks, in order
        for n in range(7):
            ctx = poly_ring(n)
            for masks in counting._supernova_generator_sets(n):
                form = recognize_supernova(_ideal_from_antichain(masks, ctx))
                assert tuple(stage_generators(form.stages)) == masks, masks

    def test_gotzmann_in_S_is_gotzmann_in_R(self):
        # on the same generators; at n = 7 the supernova sets stand for the
        # Gotzmann ideals of S other than zero and unit
        for n in range(7):
            R = sqf_ring(n)
            for I in enumerate_gotzmann(n):
                assert is_gotzmann_ideal(_ideal_from_antichain(gen_masks(I), R)), I.gens
        keys = counting._supernova_generator_sets(7)
        assert len(keys) == 58053
        R = sqf_ring(7)
        assert all(is_gotzmann_ideal(_ideal_from_antichain(masks, R)) for masks in keys)


class TestEnumerateOsp:
    def test_order_matches_frozenset_recursion(self):
        # the partitions are built unchecked; each must still be one that the
        # validating constructor accepts and equals
        for n in range(8):
            built = list(enumerate_osp(n))
            assert built == list(osp_by_frozensets(n))
            for p in built:
                assert type(p.blocks) is tuple and p == OrderedSetPartition(p.blocks)

    def test_generator_with_the_empty_partition_at_zero(self):
        # bench/tracer.py times a generator function inside each next()
        assert inspect.isgeneratorfunction(enumerate_osp)
        assert list(enumerate_osp(0)) == [OrderedSetPartition(())]
        # the size cap, wherever it is checked: at the call or at the first next()
        message = f"^ordered set partition enumeration is limited to {OSP_MAX_VARS}$"
        with pytest.raises(ValueError, match=message):
            next(enumerate_osp(OSP_MAX_VARS + 1))

    def test_blocks_are_masks(self):
        o = osp({2}, {1, 3})
        assert o.blocks == (0b010, 0b101)
        assert o.nu == 3 and o.last_block_big
        assert not osp({1, 2}, {3}).last_block_big

    def test_validation_messages(self):
        cases = [
            ((0b01, 0), "blocks must be nonempty"),
            ((0b011, 0b110), "blocks must be disjoint"),
            ((0b101,), "blocks must cover an initial segment of the positive integers"),
            ((0b10,), "blocks must cover an initial segment of the positive integers"),
            ((-1,), "blocks must cover an initial segment of the positive integers"),
        ]
        for blocks, message in cases:
            with pytest.raises(ValueError) as err:
                OrderedSetPartition(blocks)
            assert str(err.value) == message, blocks


class TestOspImages:
    def test_with_linear_two_blocks(self):
        I = osp_to_ideal(osp({1}, {2, 3}), WITH_LINEAR)
        assert I == parse_ideal_inline("a,bc", poly_ring(3))

    def test_without_linear_single_block(self):
        I = osp_to_ideal(osp({1, 2}), WITHOUT_LINEAR)
        assert I == parse_ideal_inline("ab", poly_ring(2))

    def test_singleton_last_block_rejected(self):
        message = "^the partition's last block must have more than one element$"
        for o, family in ((osp({1, 2}, {3}), WITH_LINEAR), (osp({1}), "linear")):
            with pytest.raises(ValueError, match=message):
                osp_to_ideal(o, family)

    def test_matches_minimalize_of_the_stage_list(self):
        # every big-last-block partition of n <= 6, in both families
        for n in range(7):
            for o in enumerate_osp(n):
                if not o.last_block_big:
                    continue
                for family in (WITH_LINEAR, WITHOUT_LINEAR):
                    I, want = osp_to_ideal(o, family), osp_image_by_minimalize(o, family)
                    assert I.gens == want.gens and I.ctx == want.ctx, (o, family)
                    assert gen_masks(I) == gen_masks(want), (o, family)

    def test_unknown_family_rejected(self):
        for o in (osp(), osp({1, 2})):
            with pytest.raises(ValueError) as err:
                osp_to_ideal(o, "linear")
            assert str(err.value) == "unknown family 'linear'"

    def test_entries_pair_into_stages(self):
        o = osp({1}, {2}, {3, 4})
        # with linear, stages (1, a), (b, cd): a, bc, bd
        assert osp_to_ideal(o, WITH_LINEAR) == parse_ideal_inline("a,bc,bd", poly_ring(4))
        # without linear, stage (a, b) and the odd tail cd: ab, acd
        assert osp_to_ideal(o, WITHOUT_LINEAR) == parse_ideal_inline("ab,acd", poly_ring(4))

    @pytest.mark.parametrize("family", [WITH_LINEAR, WITHOUT_LINEAR])
    def test_lost_support_raises(self, monkeypatch, family):
        # a stage loop that drops the last generator loses the variables
        # only that generator holds: c with linear (a, bc), c without (ab, ac)
        stage_generators = counting.stage_generators
        monkeypatch.setattr(counting, "stage_generators",
                            lambda stages: stage_generators(stages)[:-1])
        with pytest.raises(InvariantViolation, match="^partition image lost full support$"):
            osp_to_ideal(osp({1}, {2, 3}), family)

    def test_empty_partition_maps_to_the_trivial_ideals(self):
        assert osp_to_ideal(osp(), WITH_LINEAR).is_unit
        assert osp_to_ideal(osp(), WITHOUT_LINEAR).is_zero

    def test_weight_preserved_and_gotzmann(self):
        for n in range(6):
            for o in enumerate_osp(n):
                if not o.last_block_big:
                    continue
                for family in (WITH_LINEAR, WITHOUT_LINEAR):
                    I = osp_to_ideal(o, family)
                    assert I.ctx.n == n
                    assert is_gotzmann_ideal(I)

    def test_bijection_onto_full_support(self):
        for n in range(6):
            big = [o for o in enumerate_osp(n) if o.last_block_big]
            with_lin = [osp_to_ideal(o, WITH_LINEAR) for o in big]
            without_lin = [osp_to_ideal(o, WITHOUT_LINEAR) for o in big]
            assert len({I.gens for I in with_lin}) == len(big)
            assert len({I.gens for I in without_lin}) == len(big)
            image = {I.gens for I in with_lin} | {I.gens for I in without_lin}
            assert len(image) == 2 * len(big)
            full = (1 << n) - 1
            target = {I.gens for I in enumerate_gotzmann(n)
                      if I.support_mask == full or n == 0}
            if n == 1:
                target -= {parse_ideal_inline("a", poly_ring(1)).gens}
            if n == 0:
                # at weight zero both trivial ideals count as full support
                target = {I.gens for I in enumerate_gotzmann(0)}
            assert image == target

    def test_images_share_one_exponent_tuple_per_monomial(self):
        # all 29024 images at n = 7 hold at most 2^7 tuple objects between them
        big = [o for o in enumerate_osp(7) if o.last_block_big]
        images = [osp_to_ideal(o, family) for o in big for family in (WITH_LINEAR, WITHOUT_LINEAR)]
        assert len(images) == 29024
        assert len({id(e) for I in images for e in I.gens}) <= 1 << 7

    def test_five_classes_partition_full_support(self):
        for n in range(1, 6):
            full = (1 << n) - 1
            ideals = [I for I in enumerate_gotzmann(n)
                      if not I.is_zero and not I.is_unit and I.support_mask == full]
            labels = [full_support_class(I) for I in ideals]
            assert all(lab is not None for lab in labels)
            big = [o for o in enumerate_osp(n) if o.last_block_big]
            by_class = {}
            for I, lab in zip(ideals, labels):
                by_class.setdefault(lab, set()).add(I.gens)
            linear_images = {osp_to_ideal(o, WITH_LINEAR).gens for o in big}
            plain_images = {osp_to_ideal(o, WITHOUT_LINEAR).gens for o in big}
            want_linear = by_class.get("linear_principal_top", set()) | \
                by_class.get("linear_wide_top", set())
            want_plain = by_class.get("no_linear_principal_top", set()) | \
                by_class.get("no_linear_wide_top", set())
            if n == 1:
                assert by_class == {"single_variable": {parse_ideal_inline("a", poly_ring(1)).gens}}
            assert linear_images == want_linear
            assert plain_images == want_plain


class TestSymmetryCounts:
    def test_two_variables_explicit(self):
        counts = count_up_to_symmetry(2)
        assert counts == {
            "no_linear_full_support": 1,
            "linear_full_support": 1,
            "no_linear_sub_support": 1,
            "linear_sub_support": 1,
            "total_nonunit": 4,
        }

    def test_one_variable_special_case(self):
        ctx = poly_ring(1)
        nonunit = [I for I in enumerate_gotzmann(1) if not I.is_unit]
        assert {I.gens for I in nonunit} == \
            {parse_ideal_inline("0", ctx).gens, parse_ideal_inline("a", ctx).gens}

    def test_powers_of_two(self):
        for n in range(2, 17):
            counts = count_up_to_symmetry(n)
            for name in ("no_linear_full_support", "linear_full_support",
                         "no_linear_sub_support", "linear_sub_support"):
                assert counts[name] == 2 ** (n - 2)
            assert counts["total_nonunit"] == 2 ** n

    def test_guard(self):
        for n in (1, 17):
            with pytest.raises(ValueError):
                count_up_to_symmetry(n)

    @staticmethod
    def _bucket(I):
        linear = "linear" if has_linear_gen(I) else "no_linear"
        support = "full" if I.support_mask == (1 << I.ctx.n) - 1 else "sub"
        return f"{linear}_{support}_support"

    def test_signatures_match_canonical_orbits(self):
        for n in range(2, 7):
            ctx = poly_ring(n)
            orbits = {canonicalize(I): self._bucket(I)
                      for I in enumerate_gotzmann(n) if not I.is_unit}
            representatives = {}
            signatures = list(_supernova_signatures(n))
            for signature in signatures:
                stages, used = [], 0
                for m, b in signature:
                    stages.append((((1 << m) - 1) << used, ((1 << b) - 1) << (used + m)))
                    used += m + b
                I = supernova_to_ideal(SupernovaForm(tuple(stages)), ctx)
                representatives[canonicalize(I)] = self._bucket(I)
            assert len(representatives) == len(signatures)
            assert representatives == orbits
            want = Counter(orbits.values())
            want["total_nonunit"] = len(orbits)
            assert count_up_to_symmetry(n) == want

    def test_orbits_really_collapse(self):
        # representatives with permuted variables never double count
        keys = set()
        doubled = 0
        for I in enumerate_gotzmann(3):
            if I.is_unit:
                continue
            key = canonicalize(I)
            if key in keys:
                doubled += 1
            keys.add(key)
        assert len(keys) == 8 and doubled == 19 - 1 - 8


class TestCountTable:
    def test_small_table_agrees(self):
        rows = count_table(4)
        assert [r["enumerated"] for r in rows] == GOTZMANN_COUNTS[:5]
        for row in rows:
            assert row["enumerated"] == row["egf"] == row["brute"]
            assert row["full_support"] == row["full_support_egf"]

    @pytest.mark.parametrize("wrong", ["egf", "full_support_egf"])
    def test_route_mismatch_raises(self, monkeypatch, capsys, wrong):
        g, h = gotzmann_count_series(2), full_support_series(2)
        if wrong == "egf":
            g = g[:2] + (g[2] + 1,)
        else:
            h = h[:2] + (h[2] + 1,)
        monkeypatch.setattr(counting, "gotzmann_count_series", lambda T: g)
        monkeypatch.setattr(counting, "full_support_series", lambda T: h)
        with pytest.raises(InvariantViolation, match="count mismatch at n=2"):
            count_table(2)
        assert main(["count", "--max-n", "2"]) == 3
        assert "count mismatch at n=2" in capsys.readouterr().err

    def test_brute_column_up_to_the_antichain_limit(self):
        assert [r["brute"] for r in count_table(6)] == GOTZMANN_COUNTS + [None]

    def test_negative_max_rejected(self):
        with pytest.raises(ValueError, match="variable count must be nonnegative, got -1"):
            count_table(-1)

    @pytest.mark.parametrize("count, n", [
        (count_table, 2.0), (count_table, True), (count_up_to_symmetry, 3.0)])
    def test_variable_count_must_be_an_int(self, count, n):
        with pytest.raises(ValueError, match=f"^variable count must be an int, got {n!r}$"):
            count(n)
