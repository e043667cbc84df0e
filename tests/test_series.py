import math
import sys

import pytest

from gotzmann.counting import (
    big_last_block_series,
    enumerate_osp,
    fubini,
    full_support_series,
    gotzmann_count_series,
    osp_series,
)
from gotzmann.series import egf_coefficient

from support import osp_counts

FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


def stirling2_rows(n_max):
    """Stirling numbers of the second kind S(n, k), n <= n_max, by
    S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestOrderedSetPartitionSeries:
    def test_fubini_values(self):
        assert [fubini(n) for n in range(9)] == FUBINI

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fubini(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            list(enumerate_osp(-2))

    # enumerate_osp is a generator function, so it checks at the first next()
    @pytest.mark.parametrize("size, n", [
        (fubini, 2.0), (fubini, True),
        (lambda n: next(enumerate_osp(n)), 2.0), (lambda n: next(enumerate_osp(n)), True),
    ], ids=["fubini-float", "fubini-bool", "enumerate_osp-float", "enumerate_osp-bool"])
    def test_set_size_must_be_an_int(self, size, n):
        with pytest.raises(ValueError, match=f"^set size must be an int, got {n!r}$"):
            size(n)

    def test_osp_series_against_stirling_numbers(self):
        # an ordered partition into k blocks is a partition into k blocks, ordered
        rows = stirling2_rows(60)
        assert osp_series(60) == tuple(
            sum(math.factorial(k) * S for k, S in enumerate(row)) for row in rows)

    def test_fubini_is_not_recursive(self):
        n = 200
        expect = sum(math.factorial(k) * S for k, S in enumerate(stirling2_rows(n)[n]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 40)
        try:
            value = fubini(n)
        finally:
            sys.setrecursionlimit(limit)
        assert value == expect

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
    def test_negative_truncation_rejected(self):
        for build in (osp_series, big_last_block_series, full_support_series,
                      gotzmann_count_series):
            with pytest.raises(ValueError, match="^truncation must be nonnegative, got -1$"):
                build(-1)
            assert len(build(0)) == 1

    def test_truncation_is_required(self):
        for build in (osp_series, big_last_block_series, full_support_series,
                      gotzmann_count_series):
            with pytest.raises(TypeError, match="missing 1 required positional argument: 'T'"):
                build()

    @pytest.mark.parametrize("build, T", [
        (osp_series, 2.5), (gotzmann_count_series, 3.0), (osp_series, True)])
    def test_truncation_must_be_an_int(self, build, T):
        with pytest.raises(ValueError, match=f"^truncation must be an int, got {T!r}$"):
            build(T)

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
