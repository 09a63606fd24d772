"""Unit tests for the shared vectorized building blocks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (ceil_div, concat_ranges, group_starts,
                         segment_reduce, segment_sum, sorted_distinct)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 7) == 0

    def test_one(self):
        assert ceil_div(1, 64) == 1

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_float_ceil(self, a, b):
        assert ceil_div(a, b) == -(-a // b) == (a + b - 1) // b


class TestConcatRanges:
    def test_empty(self):
        out = concat_ranges(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
        assert len(out) == 0

    def test_single_range(self):
        out = concat_ranges(np.array([5]), np.array([3]))
        assert out.tolist() == [5, 6, 7]

    def test_multiple_ranges(self):
        out = concat_ranges(np.array([0, 10, 100]), np.array([2, 0, 3]))
        assert out.tolist() == [0, 1, 100, 101, 102]

    def test_zero_length_ranges_skipped(self):
        out = concat_ranges(np.array([7, 8, 9]), np.array([0, 0, 0]))
        assert len(out) == 0

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 20)),
                    max_size=30))
    @settings(max_examples=50)
    def test_matches_naive(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        lengths = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in pairs]) if pairs else \
            np.zeros(0, dtype=np.int64)
        got = concat_ranges(starts, lengths)
        assert np.array_equal(got, expected)


class TestSegmentSum:
    def test_basic(self):
        out = segment_sum(np.array([1.0, 2.0, 3.0]),
                          np.array([0, 0, 2]), 3)
        assert out.tolist() == [3.0, 0.0, 3.0]

    def test_empty(self):
        out = segment_sum(np.zeros(0), np.zeros(0, dtype=np.int64), 4)
        assert out.tolist() == [0.0] * 4

    def test_unsorted_ids(self):
        out = segment_sum(np.array([1.0, 2.0, 3.0, 4.0]),
                          np.array([2, 0, 2, 1]), 3)
        assert out.tolist() == [2.0, 4.0, 4.0]


class TestSegmentReduce:
    def test_min_reduce(self):
        out = segment_reduce(np.minimum, np.array([5.0, 2.0, 9.0]),
                             np.array([0, 0, 1]), 3, np.inf)
        assert out[0] == 2.0 and out[1] == 9.0 and np.isinf(out[2])

    def test_empty_values(self):
        out = segment_reduce(np.add, np.zeros(0),
                             np.zeros(0, dtype=np.int64), 2, 0.0)
        assert out.tolist() == [0.0, 0.0]

    @given(st.lists(st.integers(0, 4), max_size=40))
    @settings(max_examples=40)
    def test_sum_matches_bincount(self, ids):
        ids = np.sort(np.array(ids, dtype=np.int64))
        vals = np.ones(len(ids))
        out = segment_reduce(np.add, vals, ids, 5, 0.0)
        assert np.array_equal(out, np.bincount(ids, minlength=5))


class TestGroupStarts:
    def test_empty(self):
        assert len(group_starts(np.zeros(0, dtype=np.int64))) == 0

    def test_all_same(self):
        assert group_starts(np.array([3, 3, 3])).tolist() == [0]

    def test_runs(self):
        assert group_starts(np.array([1, 1, 2, 5, 5, 5])).tolist() == [0, 2, 3]


class TestSortedDistinct:
    """The sort-based stand-in for ``np.unique(a)`` on integer keys."""

    I64 = np.iinfo(np.int64)

    def check(self, a):
        a = np.asarray(a)
        got = sorted_distinct(a)
        want = np.unique(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_empty(self):
        self.check(np.zeros(0, dtype=np.int64))
        self.check(np.zeros(0, dtype=np.int32))

    def test_one_element(self):
        self.check(np.array([7]))

    def test_duplicates(self):
        self.check(np.array([3, 1, 3, 3, 0, 1, 9, 0]))
        self.check(np.full(50, 4, dtype=np.int64))

    def test_negatives_and_extremes(self):
        self.check(np.array([self.I64.max, -5, self.I64.min, 0,
                             self.I64.max, -5, self.I64.min, 1]))

    def test_already_sorted(self):
        self.check(np.arange(100, dtype=np.int64))
        self.check(np.repeat(np.arange(-20, 20), 3))

    def test_does_not_modify_input(self):
        a = np.array([5, 2, 5, 1])
        sorted_distinct(a)
        assert a.tolist() == [5, 2, 5, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60))
    def test_matches_unique(self, values):
        self.check(np.array(values, dtype=np.int64))
