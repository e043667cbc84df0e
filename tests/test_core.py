import copy
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from gotzmann import core
from gotzmann.core import (
    MAX_VARS,
    POLY,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    _all_monomials,
    _binom_row,
    _canonical_keys,
    _exps_of,
    _mask_level_bitsets,
    _space_from_basis,
    _tables,
    all_monomials,
    as_exps,
    binom,
    bitset_masks,
    component_space,
    divides,
    exps_to_mask,
    gen_masks,
    ideal_from_up_set,
    insert_variable_bitset,
    iter_bits,
    lower_shadow,
    mask_bitset,
    mask_to_exps,
    minimalize,
    poly_hilbert_from_sqf,
    poly_ring,
    q_context,
    reflavor,
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
from gotzmann.classify import recognize_supernova, supernova_to_ideal
from gotzmann.counting import (
    WITH_LINEAR,
    WITHOUT_LINEAR,
    enumerate_antichains,
    enumerate_gotzmann,
    enumerate_osp,
    osp_to_ideal,
)
from gotzmann.decompose import (
    alexander_dual_ideal,
    alexander_dual_space,
    colon_with_n1,
    compress,
    decompose,
    growth_equality,
    is_gdual_ideal,
    reconstruct,
)
from gotzmann.lex import (
    is_gotzmann_ideal,
    is_gotzmann_space,
    is_lex_segment,
    is_lex_some_order,
    lex_segment,
    lexify_in_R,
    sqf_lexify_in_S,
)
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import (
    canonical_order,
    direct_poly_dim,
    divide_by_variable,
    has_linear_gen,
    ideal_gens_error,
    minimalize_by_tuples,
    minimalize_error,
    quotient_by_variable,
    random_space,
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
            n = rng.randint(0, MAX_VARS)
            flavor = rng.choice(["S", "R"])
            ctx = poly_ring(n) if flavor == "S" else sqf_ring(n)
            squarefree = flavor == "R" or trial % 2 == 0
            items = self._random_inputs(rng, n, squarefree)
            got = minimalize(items, ctx)
            assert got.gens == minimalize_by_tuples(items, ctx).gens
            assert minimalize(got.gens, ctx) == got
        # several hundred masks at full width: divisibility drops many, keeps many
        n = MAX_VARS
        masks = [sum(1 << i for i in rng.sample(range(n), rng.randint(4, 10)))
                 for _ in range(600)]
        for ctx in (sqf_ring(n), poly_ring(n)):
            got = minimalize(masks, ctx)
            assert got.gens == minimalize_by_tuples(masks, ctx).gens
            assert 100 < len(got.gens) < len(set(masks)) - 100

    @staticmethod
    def _mixed_inputs(rng, n):
        """Sparse masks beside tuples with a square on sparse supports, so that
        masks divide squares and squares divide each other."""
        def sparse(top):
            return sum(1 << i for i in rng.sample(range(n), min(n, rng.randint(1, top))))
        items = [sparse(4) for _ in range(rng.randint(0, 3 * n))]
        if rng.random() < 0.05:
            items.append(0)
        for _ in range(rng.randint(1, 6)):
            e = list(mask_to_exps(sparse(5), n))
            support = [i for i in range(n) if e[i]]
            for i in rng.sample(support, min(len(support), rng.randint(1, 2))):
                e[i] = rng.randint(2, 3)
            items.append(tuple(e))
        return items

    def test_mixed_input_matches_tuple_oracle(self):
        # the masks go through the bitset kernel and only the squares are
        # compared pairwise, in minimalize, which the constructor's check calls
        rng = random.Random(12)
        rejected = 0
        for _ in range(600):
            n = rng.randint(1, MAX_VARS)
            ctx = poly_ring(n)
            items = self._mixed_inputs(rng, n)
            got = minimalize(items, ctx)
            assert got.gens == minimalize_by_tuples(items, ctx).gens
            assert (got._masks is None) == any(max(e) > 1 for e in got.gens)
            # one dropped monomial put back makes a set that is no antichain
            dropped = {as_exps(m, n) for m in items} - set(got.gens)
            if dropped:
                gens = sorted(set(got.gens) | {rng.choice(sorted(dropped))},
                              key=lambda e: (sum(e), tuple(-x for x in e)))
                with pytest.raises(ValueError) as err:
                    MonomialIdeal(ctx, tuple(gens))
                assert str(err.value) == ideal_gens_error(ctx, gens)
                rejected += 1
        assert rejected > 300
        # a few hundred masks at full width beside a few squares
        n = MAX_VARS
        ctx = poly_ring(n)
        items = [sum(1 << i for i in rng.sample(range(n), rng.randint(4, 10)))
                 for _ in range(400)]
        items += [(2,) + (0,) * (n - 1)] + self._mixed_inputs(rng, n)[-6:]
        got = minimalize(items, ctx)
        assert got.gens == minimalize_by_tuples(items, ctx).gens
        assert ideal_gens_error(ctx, got.gens) is None

    def test_squares_only_and_supports_above_every_mask(self):
        # input with no squarefree monomial, and a square whose support uses a
        # variable above every mask, so the up-set spans the supports too
        n = MAX_VARS
        top_square = (0,) * (n - 1) + (2,)
        cases = [
            (poly_ring(2), [(2, 0), (3, 0), (0, 2)], ((2, 0), (0, 2))),
            (poly_ring(n), [1, top_square], (mask_to_exps(1, n), top_square)),
            (poly_ring(n), [1 << (n - 1), top_square], (mask_to_exps(1 << (n - 1), n),)),
        ]
        for ctx, items, want in cases:
            got = minimalize(items, ctx)
            assert got.gens == want == minimalize_by_tuples(items, ctx).gens
            assert (got._masks is None) == any(max(e) > 1 for e in want)
            assert MonomialIdeal(ctx, got.gens) == got

    @pytest.mark.parametrize("n", range(9, MAX_VARS + 1))
    def test_shuffled_squares_with_repeats_above_8_variables(self, n):
        # a square on the top variable that no mask or other square divides
        # stays a generator, so the ideal records no masks
        rng = random.Random(n)
        top_square = (0,) * (n - 1) + (2,)
        for _ in range(20):
            items = [m for m in self._mixed_inputs(rng, n) if m not in (0, 1 << (n - 1))]
            items += [top_square] + rng.choices(items, k=rng.randint(1, 4))
            rng.shuffle(items)
            got = minimalize(items, poly_ring(n))
            assert got.gens == minimalize_by_tuples(items, poly_ring(n)).gens, items
            assert top_square in got.gens and got._masks is None, items

    def test_mixed_input_filtered_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(core, "_close_up", counted("close_up", core._close_up))
        monkeypatch.setattr(MonomialIdeal, "__post_init__",
                            counted("check", MonomialIdeal.__post_init__))
        I = minimalize([(2, 0, 0), (0, 1, 1), (1, 1, 0)], S3)
        assert I.gens == ((2, 0, 0), (1, 1, 0), (0, 1, 1)) and I._masks is None
        assert calls == {"close_up": 1}

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
            (R3, (a2,), "monomial (2, 0, 0) is not squarefree"),
            (R3, ((1, 1),), "bad exponent tuple (1, 1) for 3 variables"),
            (poly_ring(2), ((1.5, 0),), "bad exponent tuple (1.5, 0) for 2 variables"),
            (poly_ring(2), ("ab",), "bad exponent tuple ('a', 'b') for 2 variables"),
            (poly_ring(2), (3,), "monomial 3 is not an exponent sequence"),
            (poly_ring(2), ((True, 0),), "bad exponent tuple (True, 0) for 2 variables"),
            (sqf_ring(2), ((0, False),), "bad exponent tuple (0, False) for 2 variables"),
        ]
        for ctx, gens, message in cases:
            with pytest.raises(ValueError) as err:
                MonomialIdeal(ctx, gens)
            assert str(err.value) == message, (ctx.flavor, gens)
        for items, message in [([a2], "monomial (2, 0, 0) is not squarefree"),
                               ([a2, 8], "monomial (2, 0, 0) is not squarefree"),
                               ([ab, 9, -1], "mask 9 does not fit in 3 variables"),
                               ([(1, 0)], "bad exponent tuple (1, 0) for 3 variables"),
                               ([(1.5, 0, 0)], "bad exponent tuple (1.5, 0, 0) for 3 variables"),
                               (["abc"], "bad exponent tuple ('a', 'b', 'c') for 3 variables"),
                               ([3.0], "monomial 3.0 is not an exponent sequence"),
                               ([True], "mask True is a bool, not an int"),
                               ([1, False], "mask False is a bool, not an int"),
                               ([(1, 0, True)], "bad exponent tuple (1, 0, True) for 3 variables"),
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
            ctx = rng.choice((poly_ring, sqf_ring))(rng.randint(0, MAX_VARS))
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


class TestMaskToExps:
    """The byte-table form agrees with the digit definition: bit i of the low
    n bits at index i, whatever bits lie above them."""

    @staticmethod
    def _digits(mask, n):
        return tuple(mask >> i & 1 for i in range(n))

    def test_every_mask_up_to_12(self):
        for n in range(13):
            for m in range(1 << n):
                e = mask_to_exps(m, n)
                assert e == self._digits(m, n), (m, n)
                if n <= 8:
                    # one shared tuple object per monomial
                    assert e is mask_to_exps(m, n) is mask_to_exps(m + (5 << n), n), (m, n)

    def test_random_masks_13_to_16(self):
        rng = random.Random(61)
        for n in range(13, 17):
            for _ in range(2000):
                m = rng.randrange(1 << n)
                assert mask_to_exps(m, n) == self._digits(m, n), (m, n)

    def test_negative_and_oversized_masks_keep_the_low_bits(self):
        rng = random.Random(62)
        for n in range(17):
            for _ in range(200):
                m = rng.randrange(-(1 << 40), 1 << 40)
                assert mask_to_exps(m, n) == self._digits(m, n), (m, n)
            assert mask_to_exps(-1, n) == (1,) * n
            assert mask_to_exps(1 << n, n) == (0,) * n

    def test_table_step_matches_per_mask(self):
        # _exps_of, the one table step for a batch of masks that fit, against
        # mask_to_exps one mask at a time, sharing its tuples up to 8 variables
        rng = random.Random(63)
        batches = [(n, list(range(1 << n))) for n in (0, 7, 8, 9)]
        batches.append((16, [rng.randrange(1 << 16) for _ in range(2000)]))
        for n, masks in batches:
            exps = _exps_of(masks, n)
            assert type(exps) is tuple and exps == tuple(mask_to_exps(m, n) for m in masks)
            if n <= 8:
                assert all(e is mask_to_exps(m, n) for e, m in zip(exps, masks)), n
        assert _exps_of([], 16) == ()

    def test_variable_count_out_of_range(self):
        for n in (17, 40, -1):
            with pytest.raises(ValueError, match=f"^variable count must be in 0..16, got {n}$"):
                mask_to_exps(1, n)

    def test_as_exps_rejects_a_mask_too_wide(self):
        assert as_exps(7, 3) == (1, 1, 1)
        with pytest.raises(ValueError, match="^mask 8 does not fit in 3 variables$"):
            as_exps(8, 3)

    def test_exps_to_mask_takes_int_zero_or_one_only(self):
        cases = [
            ((-1, 0), "bad exponent tuple (-1, 0) for 2 variables"),
            ((0.5, 0), "bad exponent tuple (0.5, 0) for 2 variables"),
            ((True, 0), "bad exponent tuple (True, 0) for 2 variables"),
            ((1.0, 0), "bad exponent tuple (1.0, 0) for 2 variables"),
            ((2, 0, 0), "monomial is not squarefree: exponent 2 at index 0"),
            ((0, 1, 3, 2), "monomial is not squarefree: exponent 3 at index 2"),
            ((0,) * 12 + (2,), "monomial is not squarefree: exponent 2 at index 12"),
            (5, "monomial 5 is not an exponent sequence"),
            ((0,) * 17, "variable count must be in 0..16, got 17"),
            ((2,) + (0,) * 16, "variable count must be in 0..16, got 17"),
        ]
        for exps, message in cases:
            with pytest.raises(ValueError) as err:
                exps_to_mask(exps)
            assert str(err.value) == message, exps
        # the accepted tuples, each exponent at its own bit
        accepted = [((), 0), ((1,), 1), ((0, 1, 1), 0b110), ([1, 0, 1], 0b101),
                    ((0,) * 15 + (1,), 1 << 15), ((1,) * 16, (1 << 16) - 1)]
        for exps, mask in accepted:
            assert exps_to_mask(exps) == mask, exps


class TestTables:
    """The one per-size cache of the mask encoding: built on first use, one
    entry per variable count."""

    def test_nothing_built_at_import(self):
        # a fresh interpreter (-S: no site hooks), so no other test has touched the cache
        src = str(Path(core.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); import gotzmann.core; "
                "print(gotzmann.core._tables.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0"]

    def test_one_entry_per_size(self):
        for n in range(MAX_VARS + 1):
            assert mask_to_exps((1 << n) - 1, n) == (1,) * n
            assert _canonical_keys([0], n) == [((1 << n) - 1) << n]
            assert exps_to_mask((0,) * n) == 0
        info = _tables.cache_info()
        assert info.currsize == info.maxsize == MAX_VARS + 1


class TestSharedRings:
    """Rings with default names are one shared context per (n, flavor)."""

    def test_default_names_share_one_context(self):
        for n in range(17):
            assert poly_ring(n) is poly_ring(n)
            assert sqf_ring(n) is sqf_ring(n)
            assert poly_ring(n) != sqf_ring(n)
            assert poly_ring(n).names == sqf_ring(n).names == tuple("abcdefghijklmnop"[:n])

    def test_named_rings_are_fresh_and_validated(self):
        named = poly_ring(2, "xy")
        assert named is not poly_ring(2, "xy") and named == poly_ring(2, ["x", "y"])
        assert named != poly_ring(2)
        assert sqf_ring(3, "abc") is not sqf_ring(3) and sqf_ring(3, "abc") == sqf_ring(3)
        with pytest.raises(ValueError, match="distinct and nonempty"):
            poly_ring(2, "xx")
        with pytest.raises(ValueError, match="one name per variable"):
            sqf_ring(3, "xy")

    def test_reflavor_keeps_default_rings_shared(self):
        for n in range(17):
            assert reflavor(poly_ring(n), SQF) is sqf_ring(n)
            assert reflavor(sqf_ring(n), POLY) is poly_ring(n)
            assert reflavor(poly_ring(n), POLY) is poly_ring(n)
        I = parse_ideal_inline("ab,ac,bc", poly_ring(3))
        assert lexify_in_R(I).ctx is sqf_ring(3)
        assert sqf_lexify_in_S(I).ctx is poly_ring(3)

    def test_reflavor_of_named_ring_is_fresh(self):
        named = poly_ring(3, "xyz")
        other = reflavor(named, SQF)
        assert other == sqf_ring(3, "xyz") and other is not reflavor(named, SQF)
        assert other.names == ("x", "y", "z") and other != sqf_ring(3)
        with pytest.raises(ValueError, match="flavor must be"):
            reflavor(poly_ring(2), "T")

    def test_invalid_counts_raise_every_time(self):
        for ring in (poly_ring, sqf_ring):
            for n in (17, -1):
                for _ in range(2):
                    with pytest.raises(ValueError,
                                       match=f"^variable count must be in 0..16, got {n}$"):
                        ring(n)

    def test_q_context_index_out_of_range(self):
        assert q_context(R3, 2).names == ("a", "b")
        for i in (3, -1):
            with pytest.raises(ValueError, match=f"^variable index {i} out of range$"):
                q_context(R3, i)

    def test_q_context_index_must_be_an_int(self):
        for i in (True, False, 1.0, 3.0, "a", None):
            message = f"variable index must be an int, got {i!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                q_context(R3, i)


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
            assert has_linear_gen(I) == any(sum(e) == 1 for e in I.gens)

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


class TestInternalBuilder:
    """Every route through the package's mask-antichain builder yields an ideal
    the public constructor accepts, equal to it and with the same mask record."""

    @staticmethod
    def _check(I):
        assert ideal_gens_error(I.ctx, I.gens) is None, I
        assert MonomialIdeal(I.ctx, I.gens) == I
        assert I._masks == tuple(map(exps_to_mask, I.gens))

    def test_minimalize_and_up_set(self):
        rng = random.Random(51)
        for _ in range(400):
            n = rng.randint(0, 8)
            ctx = rng.choice((poly_ring, sqf_ring))(n)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n + 2))]
            for I in (minimalize(masks, ctx), ideal_from_up_set(up_set(masks, n), ctx)):
                self._check(I)

    def test_lexification(self):
        rng = random.Random(52)
        for _ in range(200):
            I = random_sqf_ideal(rng, rng.randint(0, 8), rng.choice("SR"))
            for L in (lexify_in_R(I), sqf_lexify_in_S(I)):
                self._check(L)

    def test_alexander_duals(self):
        duals = 0
        for n in range(5):
            for I in enumerate_antichains(n, "R"):
                if is_gdual_ideal(I):
                    self._check(alexander_dual_ideal(I))
                    duals += 1
        assert duals > 100

    def test_enumerated_and_supernova_ideals(self):
        for I in enumerate_gotzmann(5):
            self._check(I)
            if not (I.is_zero or I.is_unit):
                self._check(supernova_to_ideal(recognize_supernova(I), I.ctx))

    def test_antichains(self):
        for flavor in "SR":
            for n in range(6):
                for I in enumerate_antichains(n, flavor):
                    self._check(I)

    def test_partition_images(self):
        for osp in enumerate_osp(7):
            if osp.last_block_big:
                self._check(osp_to_ideal(osp, WITH_LINEAR))
                self._check(osp_to_ideal(osp, WITHOUT_LINEAR))

    def test_outside_bits_rejected(self):
        with pytest.raises(ValueError, match="^mask 9 does not fit in 3 variables$"):
            ideal_from_up_set(1 << 7 | 1 << 9 | 1 << 12, R3)


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


class TestInsertVariableBitset:
    @staticmethod
    def _by_masks(bits, i):
        low = (1 << i) - 1
        return mask_bitset(m & low | (m & ~low) << 1 for m in bitset_masks(bits))

    def test_matches_per_mask_reindexing(self):
        rng = random.Random(24)
        for n in range(9):
            for i in range(n + 1):
                for bits in (0, (1 << (1 << n)) - 1,
                             *(rng.getrandbits(1 << n) for _ in range(6))):
                    assert insert_variable_bitset(bits, n, i) == self._by_masks(bits, i), (n, i)

    def test_fifteen_variables(self):
        rng = random.Random(25)
        for i in (0, 15):
            for bits in (rng.getrandbits(1 << 15), up_set([rng.randrange(1 << 15)], 15)):
                assert insert_variable_bitset(bits, 15, i) == self._by_masks(bits, i), i


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

    @pytest.mark.parametrize("d", [True, 1.0])
    def test_degree_must_be_an_int(self, d):
        for ctx in (R3, S3):
            with pytest.raises(ValueError, match=f"^degree must be an int, got {d!r}$"):
                component_space(ideal("ab", ctx), d)

    def test_up_set_piece_matches_listing_filter(self):
        # in R the piece is read off the up-set; the oracle filters the listing
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(0, 8)
            I = random_sqf_ideal(rng, n, "R")
            ctx, gens = I.ctx, gen_masks(I)
            for d in range(n + 2):
                want = {m for m in all_monomials(ctx, d) if any(g & m == g for g in gens)}
                assert component_space(I, d).basis == want, (I.gens, d)


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
            (poly_ring(2), 1, {(1.5, 0)}, "bad exponent tuple (1.5, 0) for 2 variables"),
            (poly_ring(2), 2, {"ab"}, "bad exponent tuple ('a', 'b') for 2 variables"),
            (R3, 1, [[1, 0, 0]], "basis representation does not match ring flavor"),
            (poly_ring(2), 1, [None], "monomial None is not an exponent sequence"),
            (sqf_ring(1), 1, {True}, "mask True is a bool, not an int"),
            (poly_ring(2), 1, {(True, False)}, "bad exponent tuple (True, False) for 2 variables"),
        ]
        for ctx, d, basis, message in cases:
            with pytest.raises(ValueError) as err:
                MonomialSpace(ctx, d, basis)
            assert str(err.value) == message, (ctx.flavor, d, basis)

    def test_space_validation_messages(self):
        cases = [
            (R3, -1, [], "degree must be nonnegative"),
            (R3, 2, [(2, 0, 0)], "monomial is not squarefree: exponent 2 at index 0"),
            (R3, 1, [8], "mask 8 does not fit in 3 variables"),
            (S3, 1, [-1], "mask -1 does not fit in 3 variables"),
            (R3, 1, [(0, 1)], "bad exponent tuple (0, 1) for 3 variables"),
            (S3, 1, [(2, -1, 0)], "bad exponent tuple (2, -1, 0) for 3 variables"),
            (R3, 2, [1], "basis element 1 is not of degree 2"),
            (S3, 2, [1], "basis element (1, 0, 0) is not of degree 2"),
            (poly_ring(2), 1, [(1.5, 0)], "bad exponent tuple (1.5, 0) for 2 variables"),
            (poly_ring(2), 2, ["ab"], "bad exponent tuple ('a', 'b') for 2 variables"),
            (poly_ring(2), 1, [None], "monomial None is not an exponent sequence"),
            (sqf_ring(2), 1, [True], "mask True is a bool, not an int"),
            (poly_ring(2), 1, [(True, False)], "bad exponent tuple (True, False) for 2 variables"),
            (sqf_ring(2), 1, [(0, True)], "bad exponent tuple (0, True) for 2 variables"),
        ]
        for ctx, d, monomials, message in cases:
            with pytest.raises(ValueError) as err:
                space(ctx, d, monomials)
            assert str(err.value) == message, (ctx.flavor, d, monomials)


class TestSpaceBuilder:
    """Every space the package builds with _space_from_basis equals the space
    the checking constructor builds on the same basis, which accepts it."""

    PRODUCERS = {"shadow_up", "component_space", "lex_segment", "decompose", "compress",
                 "colon_with_n1", "alexander_dual_space", "reconstruct", "is_gotzmann_ideal"}

    @pytest.fixture
    def callers(self, monkeypatch):
        """Re-check each space the builder makes; count the callers by name."""
        seen = Counter()

        def checked(ctx, degree, basis):
            V = _space_from_basis(ctx, degree, basis)
            assert type(basis) is frozenset
            assert MonomialSpace(ctx, degree, basis) == V
            seen[sys._getframe(1).f_code.co_name] += 1
            return V

        # the package exports a function named decompose, so the modules
        # are looked up by their full names
        for name in ("core", "lex", "decompose"):
            monkeypatch.setattr(sys.modules[f"gotzmann.{name}"], "_space_from_basis", checked)
        return seen

    @staticmethod
    def _produce(rng, ctx, d):
        """Call every producer on one random space of ctx in degree d."""
        n = ctx.n
        V = random_space(rng, ctx, d)
        order = rng.sample(range(n), n)
        shadow_up(V)
        is_gotzmann_space(V)
        I = minimalize(V.basis, ctx)
        component_space(I, d + rng.randint(0, 2))
        lex_segment(rng.randint(0, ctx.dim_component(d)), d, ctx, order)
        if ctx.flavor == POLY:
            square = (2,) + (0,) * (n - 1)
            is_gotzmann_ideal(minimalize(list(V.basis) + [square], ctx))
            return
        alexander_dual_space(V)
        if d >= 1:
            i = rng.randrange(n)
            decompose(V, i)
            compress(V, i, rng.sample(range(n - 1), n - 1))
            growth_equality(V, i)
            colon_with_n1(V)
        q = sqf_ring(n - 1)
        e = rng.randint(0, n - 1)
        vxi = lex_segment(rng.randint(0, q.dim_component(e)), e, q,
                          rng.sample(range(n - 1), n - 1))
        reconstruct(vxi, rng.randint(0, n - 1))

    def test_every_producer_matches_the_checked_constructor(self, callers):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 8)
            self._produce(rng, sqf_ring(n), rng.randint(0, n))
            self._produce(rng, poly_ring(n), rng.randint(0, 3))
        self._produce(random.Random(16), sqf_ring(MAX_VARS), 5)
        self._produce(random.Random(16), poly_ring(MAX_VARS), 2)
        assert set(callers) == self.PRODUCERS


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

    def test_lower_shadow_matches_brute_oracle(self):
        # each m / x_j over the masks, which is also the upper shadow of the
        # complements reflected back
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(0, 9)
            masks = {rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n + 2))}
            want = {m ^ 1 << j for m in masks for j in range(n) if m >> j & 1}
            bits = mask_bitset(masks)
            assert set(bitset_masks(lower_shadow(bits, n))) == want
            assert lower_shadow(bits, n) == \
                reflect_bitset(upper_shadow(reflect_bitset(bits, n), n), n)

    def test_minimalize_sorts_canonically_at_every_size(self):
        # the canonical key sort against the two stable sorts of
        # canonical_order: the table path for n <= 8 and the two-byte path
        # above it
        rng = random.Random(19)
        for n in range(MAX_VARS + 1):
            for _ in range(25):
                masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3 * n + 3))]
                for ctx in (sqf_ring(n), poly_ring(n)):
                    I = minimalize(masks, ctx)
                    assert list(I.gens) == canonical_order(set(I.gens)), (n, masks)
                    assert I._masks == tuple(map(exps_to_mask, I.gens))
                    assert MonomialIdeal(ctx, I.gens) == I

    def test_input_order_keeps_gens_and_masks(self):
        # the masks keep their input order up to the one sort, so every order
        # of the same monomials, repeats included, gives the same gens and the
        # same recorded masks, each beside its generator
        rng = random.Random(23)
        for n in range(MAX_VARS + 1):
            for _ in range(12):
                masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n + 3))]
                tuples = [mask_to_exps(m, n) for m in masks]
                squares = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
                           for _ in range(rng.randint(0, n))]
                for ctx, items in ((sqf_ring(n), masks), (sqf_ring(n), tuples),
                                   (poly_ring(n), masks), (poly_ring(n), tuples + squares)):
                    want = minimalize(items, ctx)
                    assert want == minimalize_by_tuples(items, ctx), (n, items)
                    if want._masks is not None:
                        assert want._masks == tuple(map(exps_to_mask, want.gens))
                    gens = list(want.gens)
                    shuffled = rng.sample(items, len(items))
                    for order in (gens, gens[::-1], rng.sample(gens, len(gens)),
                                  gens + gens[::-1], items[::-1], shuffled,
                                  shuffled + items[:3]):
                        got = minimalize(order, ctx)
                        assert got.gens == want.gens and got._masks == want._masks, (n, order)
                    if want._masks is not None:
                        got = minimalize(list(want._masks)[::-1], ctx)
                        assert got.gens == want.gens and got._masks == want._masks

    def test_ideal_from_up_set_matches_minimalize(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randint(0, MAX_VARS if rng.random() < 0.2 else 9)
            ctx = rng.choice((sqf_ring, poly_ring))(n)
            bits = up_set([rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n))], n)
            want = minimalize(bitset_masks(bits & ~upper_shadow(bits, n)), ctx)
            got = ideal_from_up_set(bits, ctx)
            assert got == want and got._masks == want._masks

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

    def test_ordered_listing_relabels_identity_listing(self):
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
                        assert all_monomials(ctx, d, perm) == want
                        if perm == tuple(range(n)) and ctx.flavor == "R":
                            assert all_monomials(ctx, d, perm) is identity

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

    def test_listing_cache_holds_no_listing_of_s(self):
        before = _all_monomials.cache_info().currsize
        for n in (3, 9):
            for d in range(5):
                assert len(all_monomials(poly_ring(n), d)) == poly_ring(n).dim_component(d)
        assert _all_monomials.cache_info().currsize == before

    def test_listing_cache_holds_no_empty_degrees(self):
        # below degree 0, and in R above degree n, the listing is empty
        before = _all_monomials.cache_info().currsize
        for d in (-2, -1, 5, 17):
            assert all_monomials(R4, d) == ()
        with pytest.raises(ValueError, match="^dimension 1 out of range 0..0$"):
            lex_segment(1, -1, R4)
        assert is_lex_segment(_space_from_basis(R4, 5, frozenset()))
        assert _all_monomials.cache_info().currsize == before

    def test_listing_cache_is_bounded(self):
        # room for every squarefree listing, (n, "R", d) with d <= n <= MAX_VARS
        maxsize = _all_monomials.cache_info().maxsize
        assert maxsize is not None and maxsize >= 153

    def test_order_must_be_a_permutation(self):
        for order in ((0, 0, 1), (0, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match="is not a permutation of 0..2"):
                all_monomials(R3, 1, order)


class TestCanonicalKeys:
    """The integer key of the canonical order, and the builders that order
    squarefree generators by it, against the exponent tuple order."""

    @staticmethod
    def _tuple_key(m, n):
        e = tuple(m >> i & 1 for i in range(n))
        return sum(e), tuple(-x for x in e)

    def _check_keys(self, masks, n):
        keys = _canonical_keys(masks, n)
        full = (1 << n) - 1
        reversed_masks = [int(format(m, f"0{n}b")[::-1], 2) for m in masks]
        assert keys == [(m.bit_count() << n | full ^ r) << n | m
                        for m, r in zip(masks, reversed_masks)]
        assert len(set(keys)) == len(masks)
        ranked = [m for _, m in sorted(zip(keys, masks))]
        assert ranked == sorted(masks, key=lambda m: self._tuple_key(m, n)), n

    def test_every_mask_up_to_8(self):
        for n in range(9):
            self._check_keys(list(range(1 << n)), n)

    def test_random_masks_9_to_16(self):
        # 2000 distinct masks, or every mask when there are fewer
        rng = random.Random(41)
        for n in range(9, MAX_VARS + 1):
            self._check_keys(rng.sample(range(1 << n), min(2000, 1 << n)), n)

    def test_ideal_from_minimal_in_any_order(self):
        # canonical input is kept as given, every other order is sorted; the
        # ascending order is the one bitset_masks gives, as for a dual
        rng = random.Random(42)
        for n in range(MAX_VARS + 1):
            for _ in range(10):
                items = [rng.randrange(1 << n) for _ in range(rng.randint(0, 3 * n + 3))]
                for ctx in (sqf_ring(n), poly_ring(n)):
                    want = minimalize_by_tuples(items, ctx)
                    masks = list(map(exps_to_mask, want.gens))
                    ascending = bitset_masks(mask_bitset(masks))
                    for order in (masks, masks[::-1], rng.sample(masks, len(masks)), ascending):
                        got = core._ideal_from_minimal(order, ctx)
                        assert got.gens == want.gens, (n, order)
                        assert got._masks == tuple(masks), (n, order)

    @staticmethod
    def _tuple_inputs(rng, n, squares):
        """Exponent sequences, some with a square if squares, a few masks
        beside them, and now and then one bad monomial of a kind the rules
        name."""
        items = []
        for _ in range(rng.randint(0, 2 * n + 3)):
            e = [int(rng.random() < 0.3) for _ in range(n)]
            if squares and n and rng.random() < 0.2:
                # a sparse support, so that few masks divide it
                e = [0] * n
                for i in rng.sample(range(n), min(n, rng.randint(1, 2))):
                    e[i] = rng.randint(2, 3)
            kind = rng.random()
            items.append(e if kind < 0.2 else rng.randrange(1 << n) if kind < 0.3 else tuple(e))
        if rng.random() < 0.4:
            bad = rng.choice([
                (0,) * (n + 1), (-1,) + (0,) * n, (True,) + (0,) * (n - 1),
                (0,) * (n - 1) + (1.5,), "ab", None, 3.0, True, 1 << n, -1,
            ])
            items.insert(rng.randint(0, len(items)), bad)
        return items

    def test_tuple_input_matches_oracle(self):
        # the inverted exponent tables on both sides of 8 variables, the
        # sort of an ideal with a square, and the first bad monomial in input order
        rng = random.Random(43)
        rejected, accepted = 0, Counter()
        for n in range(MAX_VARS + 1):
            for _ in range(40):
                for ctx in (sqf_ring(n), poly_ring(n)):
                    items = self._tuple_inputs(rng, n, rng.random() < 0.5)
                    message = minimalize_error(items, ctx)
                    if message is not None:
                        with pytest.raises(ValueError) as err:
                            minimalize(items, ctx)
                        assert str(err.value) == message, (n, ctx.flavor, items)
                        rejected += 1
                        continue
                    got = minimalize(items, ctx)
                    want = minimalize_by_tuples(items, ctx)
                    assert got.gens == want.gens, (n, ctx.flavor, items)
                    squares = any(x > 1 for e in want.gens for x in e)
                    masks = None if squares else tuple(map(exps_to_mask, want.gens))
                    assert got._masks == masks, (n, ctx.flavor, items)
                    accepted[ctx.flavor, n > 8, squares] += 1
        assert rejected > 300 and min(accepted.values()) > 10, (rejected, accepted)

    def test_every_error_message_at_every_width(self):
        for n in (3, 8, 9, 12, MAX_VARS):
            zeros = (0,) * n
            cases = [
                (zeros[:-1] + (2,), "monomial {} is not squarefree"),
                (zeros + (0,), "bad exponent tuple {} for %d variables" % n),
                ((-1,) + zeros[1:], "bad exponent tuple {} for %d variables" % n),
                ((True,) + zeros[1:], "bad exponent tuple {} for %d variables" % n),
                (zeros[:-1] + (1.5,), "bad exponent tuple {} for %d variables" % n),
                (None, "monomial None is not an exponent sequence"),
                (1 << n, f"mask {1 << n} does not fit in {n} variables"),
                (False, "mask False is a bool, not an int"),
            ]
            for bad, message in cases:
                for ctx in (sqf_ring(n), poly_ring(n)):
                    if ctx.flavor == POLY and "squarefree" in message:
                        continue
                    want = message.format(tuple(bad)) if "{}" in message else message
                    items = [1, zeros[:-1] + (1,), list(zeros), bad, 1 << n, None]
                    assert minimalize_error(items, ctx) == want
                    with pytest.raises(ValueError) as err:
                        minimalize(items, ctx)
                    assert str(err.value) == want, (n, ctx.flavor, bad)
            # the good items alone are accepted, each exponent at its own bit
            for ctx in (sqf_ring(n), poly_ring(n)):
                got = minimalize([1, zeros[:-1] + (1,)], ctx)
                assert got.gens == ((1,) + zeros[1:], zeros[:-1] + (1,)), n
                assert got._masks == (1, 1 << n - 1), n


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
        assert poly_hilbert_from_sqf(sqf_hilbert(unit_ideal(S3)), -1) == 0

    def test_unit_ideal_gives_full_ring_dimension(self):
        sqf = sqf_hilbert(unit_ideal(S4))
        for d in range(8):
            assert poly_hilbert_from_sqf(sqf, d) == binom(4 + d - 1, d)

    def test_transform_beyond_the_variable_count(self):
        # degrees well above n, and more rows than the binomial-row memo keeps
        rng = random.Random(77)
        ideals = [random_sqf_ideal(rng, n) for n in (1, 2, 3) for _ in range(3)]
        for d in [*range(4, 80), *range(4, 12)]:
            for I in ideals:
                assert poly_hilbert_from_sqf(sqf_hilbert(I), d) == direct_poly_dim(I, d), d
        assert _binom_row.cache_info().maxsize is not None

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
