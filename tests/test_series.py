from fractions import Fraction

import pytest

from gotzmann.core import InvariantViolation
from gotzmann.counting import (
    big_last_block_series,
    enumerate_osp,
    fubini,
    full_support_series,
    gotzmann_count_series,
    osp_series,
)
from gotzmann.series import (
    RationalSeries,
    egf_coefficient,
    series_const,
    series_exp,
    series_t,
)

from support import osp_counts

FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


class TestSeriesArithmetic:
    def test_exp_has_unit_egf_coefficients(self):
        s = series_exp(10)
        assert all(egf_coefficient(s, n) == 1 for n in range(11))

    def test_mul_by_inverse_is_one(self):
        s = series_const(2, 10) - series_exp(10) + series_t(10)
        prod = s * s.inverse()
        assert prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])

    def test_inverse_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            series_t(5).inverse()

    def test_non_integer_coefficient_is_rejected(self):
        s = RationalSeries((Fraction(1, 3), Fraction(0)))
        with pytest.raises(InvariantViolation):
            egf_coefficient(s, 0)

    def test_scalar_multiplication(self):
        s = 3 * series_t(4)
        assert s.coeffs[1] == 3


class TestOrderedSetPartitionSeries:
    def test_fubini_values(self):
        assert [fubini(n) for n in range(9)] == FUBINI

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fubini(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            list(enumerate_osp(-2))

    def test_osp_series_counts_ordered_set_partitions(self):
        s = osp_series(12)
        assert [egf_coefficient(s, n) for n in range(9)] == FUBINI

    def test_enumeration_matches_recurrence(self):
        for n in range(9):
            assert osp_counts(n)[0] == fubini(n)

    def test_big_last_block_counts(self):
        s = big_last_block_series(12)
        for n in range(9):
            big = osp_counts(n)[1]
            assert egf_coefficient(s, n) == big
            assert big == fubini(n) - n * fubini(n - 1) if n else big == 1

    def test_single_block_count_for_two_elements(self):
        count = sum(1 for osp in enumerate_osp(2) if osp.last_block_big)
        assert count == 1  # only {1,2}
        assert egf_coefficient(big_last_block_series(8), 2) == 1


class TestCountingSeries:
    def test_full_support_coefficients(self):
        h = full_support_series(12)
        assert [egf_coefficient(h, n) for n in range(6)] == [2, 1, 2, 8, 46, 332]

    def test_total_coefficients(self):
        g = gotzmann_count_series(12)
        assert [egf_coefficient(g, n) for n in range(6)] == [2, 3, 6, 19, 96, 669]

    def test_binomial_transform_relation(self):
        from gotzmann.core import binom

        g = gotzmann_count_series(12)
        h = full_support_series(12)
        for n in range(10):
            assert egf_coefficient(g, n) == sum(
                binom(n, k) * egf_coefficient(h, k) for k in range(n + 1))
