"""Update batches and the combine fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combine import COMBINED_SRC, combine_sorted, validate_combine
from repro.core.update import UpdateBatch, stable_order
from repro.errors import ProgramError


class TestUpdateBatch:
    def test_of_and_n(self):
        b = UpdateBatch.of([1, 2], [0, 0], [1.0, 2.0])
        assert b.n == 2

    def test_of_length_mismatch(self):
        with pytest.raises(ValueError):
            UpdateBatch.of([1], [0, 0], [1.0, 2.0])

    def test_empty(self):
        b = UpdateBatch.empty()
        assert b.n == 0 and b.is_sorted()

    def test_concat(self):
        a = UpdateBatch.of([1], [0], [1.0])
        b = UpdateBatch.of([2, 3], [0, 0], [2.0, 3.0])
        c = UpdateBatch.concat([a, UpdateBatch.empty(), b])
        assert c.n == 3
        assert list(c.dest) == [1, 2, 3]

    def test_concat_single_passthrough(self):
        a = UpdateBatch.of([1], [0], [1.0])
        assert UpdateBatch.concat([a]) is a

    def test_concat_empty(self):
        assert UpdateBatch.concat([]).n == 0

    def test_sort_by_dest_stable(self):
        b = UpdateBatch.of([3, 1, 3, 1], [10, 11, 12, 13], [0.0, 1.0, 2.0, 3.0])
        s = b.sort_by_dest()
        assert list(s.dest) == [1, 1, 3, 3]
        assert list(s.src) == [11, 13, 10, 12]  # stable within a dest

    def test_group(self):
        b = UpdateBatch.of([1, 1, 2, 5, 5, 5], [0] * 6, [0.0] * 6).sort_by_dest()
        uniq, offsets = b.group()
        assert list(uniq) == [1, 2, 5]
        assert list(offsets) == [0, 2, 3, 6]

    def test_group_empty(self):
        uniq, offsets = UpdateBatch.empty().group()
        assert uniq.size == 0 and list(offsets) == [0]

    def test_is_sorted(self):
        assert UpdateBatch.of([1, 2, 2], [0] * 3, [0.0] * 3).is_sorted()
        assert not UpdateBatch.of([2, 1], [0] * 2, [0.0] * 2).is_sorted()


def _spanning(lo, span, dtype, n=5000, seed=0):
    """Shuffled keys covering exactly ``[lo, lo + span]``, with repeats."""
    rng = np.random.default_rng(seed)
    keys = np.concatenate([[lo, lo + span], lo + rng.integers(0, span + 1, n)])
    return rng.permutation(keys).astype(dtype)


class TestStableOrder:
    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, np.int32),
            np.array([7], np.int32),
            np.array([3, -2, 3, -7, -2, 0], np.int32),
            _spanning(-40_000, 2**16 - 1, np.int32),  # widest radix span
            _spanning(-40_000, 2**16, np.int32),  # first fallback span
            _spanning(2**40, 1000, np.int64),
            _spanning(-(2**40), 2**20, np.int64),
            np.array([65536, 65535, -(2**31), 2**31 - 1], np.int32),  # span overflows int32
            np.array([200, 3, 200, 0], np.uint8),
        ],
        ids=lambda k: f"{k.dtype}-n{k.shape[0]}",
    )
    def test_equals_stable_argsort(self, keys):
        got = stable_order(keys)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=200))
    def test_group_equals_unique(self, dests):
        b = UpdateBatch.of(dests, range(len(dests)), [0.0] * len(dests)).sort_by_dest()
        uniq, offsets = b.group()
        want_uniq, starts = np.unique(b.dest, return_index=True)
        assert uniq.dtype == want_uniq.dtype and offsets.dtype == np.int64
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(offsets, np.append(starts, b.n))


class TestCombine:
    def make_grouped(self, dests, datas):
        b = UpdateBatch.of(dests, [0] * len(dests), datas).sort_by_dest()
        uniq, offsets = b.group()
        return b, uniq, offsets

    def test_add(self):
        b, u, o = self.make_grouped([1, 1, 2], [1.0, 2.0, 5.0])
        out, uniq, offsets = combine_sorted(b, u, o, "add")
        assert list(out.data) == [3.0, 5.0]
        assert list(uniq) == [1, 2]
        assert list(offsets) == [0, 1, 2]
        assert (out.src == COMBINED_SRC).all()

    def test_min_max(self):
        b, u, o = self.make_grouped([1, 1, 1], [3.0, 1.0, 2.0])
        out, _, _ = combine_sorted(b, u, o, "min")
        assert out.data[0] == 1.0
        out, _, _ = combine_sorted(b, u, o, "max")
        assert out.data[0] == 3.0

    def test_callable(self):
        b, u, o = self.make_grouped([1, 1, 2], [1.0, 3.0, 7.0])
        out, _, _ = combine_sorted(b, u, o, lambda x: float(np.median(x)))
        assert list(out.data) == [2.0, 7.0]

    def test_empty_batch(self):
        b, u, o = UpdateBatch.empty(), *UpdateBatch.empty().group()
        out, uniq, offsets = combine_sorted(b, u, o, "add")
        assert out.n == 0

    def test_unknown_named_operator(self):
        with pytest.raises(ProgramError):
            validate_combine("multiply")

    def test_non_callable(self):
        with pytest.raises(ProgramError):
            validate_combine(42)

    def test_matches_numpy_groupby(self):
        rng = np.random.default_rng(0)
        dests = rng.integers(0, 20, 200)
        datas = rng.random(200)
        b, u, o = self.make_grouped(dests.tolist(), datas.tolist())
        out, _, _ = combine_sorted(b, u, o, "add")
        expected = np.bincount(dests, weights=datas, minlength=20)
        for d, x in zip(out.dest, out.data):
            assert x == pytest.approx(expected[d])
