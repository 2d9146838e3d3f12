"""Memory budget resolution and page-staging buffers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.errors import BudgetExceededError
from repro.mem import ByteStreamPager, MemoryBudget, RecordPageBuffer


class TestMemoryBudget:
    def test_resolve_splits(self, cfg):
        b = MemoryBudget.resolve(cfg, n_intervals=4)
        assert b.total_bytes == cfg.memory.total_bytes
        assert b.sort_bytes == cfg.memory.sort_bytes
        assert b.page_size == cfg.ssd.page_size

    def test_multilog_floor_two_pages_per_interval(self, cfg):
        b = MemoryBudget.resolve(cfg, n_intervals=1000)
        assert b.multilog_pages >= 2 * 1000

    def test_multilog_uses_budget_when_larger(self):
        cfg = small_test_config(total_bytes=4 * 1024 * 1024)
        b = MemoryBudget.resolve(cfg, n_intervals=2)
        assert b.multilog_pages == cfg.memory.multilog_bytes // cfg.ssd.page_size

    def test_edgelog_at_least_one_page(self, tight_cfg):
        b = MemoryBudget.resolve(tight_cfg, n_intervals=2)
        assert b.edgelog_pages >= 1

    def test_sort_capacity_records(self, cfg):
        b = MemoryBudget.resolve(cfg, 2)
        assert b.sort_capacity_records(16) == cfg.memory.sort_bytes // 16
        assert b.sort_capacity_records(b.sort_bytes * 2) == 1

    def test_byte_properties(self, cfg):
        b = MemoryBudget.resolve(cfg, 3)
        assert b.multilog_bytes == b.multilog_pages * b.page_size
        assert b.edgelog_bytes == b.edgelog_pages * b.page_size


class TestRecordPageBuffer:
    def make(self, rpp=4):
        return RecordPageBuffer(("d", "s", "x"), (np.int32, np.int32, np.float64), rpp)

    def test_append_seals_at_capacity(self):
        buf = self.make(rpp=3)
        assert buf.append(1, 1, 1.0) is False
        assert buf.append(2, 2, 2.0) is False
        assert buf.append(3, 3, 3.0) is True
        assert buf.sealed_pages == 1 and buf.top_records == 0

    def test_pages_used(self):
        buf = self.make(rpp=2)
        assert buf.pages_used == 0
        buf.append(1, 1, 1.0)
        assert buf.pages_used == 1
        buf.append(2, 2, 2.0)  # seals
        assert buf.pages_used == 1
        buf.append(3, 3, 3.0)
        assert buf.pages_used == 2

    def test_append_many_counts_sealed(self):
        buf = self.make(rpp=4)
        sealed = buf.append_many(np.arange(10), np.arange(10), np.arange(10.0))
        assert sealed == 2
        assert buf.n_records == 10
        assert buf.top_records == 2

    def test_append_many_empty(self):
        buf = self.make()
        assert buf.append_many(np.empty(0), np.empty(0), np.empty(0)) == 0

    def test_drain_all_preserves_order_and_values(self):
        buf = self.make(rpp=3)
        buf.append_many(np.arange(7), np.arange(7) * 2, np.arange(7.0))
        d, s, x = buf.drain_all()
        assert list(d) == list(range(7))
        assert list(s) == [i * 2 for i in range(7)]
        assert d.dtype == np.int32 and x.dtype == np.float64
        assert buf.n_records == 0

    def test_drain_empty(self):
        d, s, x = self.make().drain_all()
        assert d.size == 0

    def test_pop_sealed_fifo(self):
        buf = self.make(rpp=2)
        buf.append_many(np.arange(6), np.arange(6), np.arange(6.0))
        pages = buf.pop_sealed(2)
        assert len(pages) == 2
        assert list(pages[0][0]) == [0, 1]
        assert buf.sealed_pages == 1

    def test_peek_all_non_destructive(self):
        buf = self.make(rpp=2)
        buf.append_many(np.arange(5), np.arange(5), np.arange(5.0))
        d, _, _ = buf.peek_all()
        assert list(d) == list(range(5))
        assert buf.n_records == 5

    def test_force_seal_partial(self):
        buf = self.make(rpp=4)
        buf.append(1, 1, 1.0)
        buf.force_seal()
        assert buf.sealed_pages == 1 and buf.top_records == 0

    def test_page_must_hold_a_record(self):
        with pytest.raises(BudgetExceededError):
            RecordPageBuffer(("a",), (np.int32,), 0)

    def test_fields_dtypes_mismatch(self):
        with pytest.raises(ValueError):
            RecordPageBuffer(("a", "b"), (np.int32,), 4)


class _ListPageModel:
    """List-of-records reference for :class:`RecordPageBuffer`."""

    def __init__(self, rpp):
        self.rpp, self.top, self.sealed = rpp, [], []

    def append(self, rec):
        self.top.append(rec)
        if len(self.top) == self.rpp:
            self.force_seal()
            return True
        return False

    def append_many(self, recs):
        return sum(self.append(r) for r in recs)

    def force_seal(self):
        if self.top:
            self.sealed.append(self.top)
            self.top = []

    def pop_sealed(self, k):
        k = len(self.sealed) if k is None else min(k, len(self.sealed))
        out, self.sealed = self.sealed[:k], self.sealed[k:]
        return out

    def records(self):
        return [r for page in self.sealed for r in page] + self.top


_DTYPES = (np.int32, np.int32, np.float64)
_record = st.tuples(
    st.integers(-(2**31), 2**31 - 1),
    st.integers(0, 2**20),
    st.floats(allow_nan=False, width=64),
)
_buffer_op = st.one_of(
    st.tuples(st.just("append"), _record),
    st.tuples(st.just("append_many"), st.lists(_record, max_size=12)),
    st.tuples(st.just("force_seal")),
    st.tuples(st.just("pop_sealed"), st.none() | st.integers(0, 3)),
    st.tuples(st.just("peek_all")),
    st.tuples(st.just("drain_all")),
    st.tuples(st.just("export_restore")),
)


def _columns(recs):
    return tuple(np.array([r[i] for r in recs], dtype=dt) for i, dt in enumerate(_DTYPES))


def _assert_cols(got, recs):
    for col, want in zip(got, _columns(recs)):
        assert col.dtype == want.dtype
        np.testing.assert_array_equal(col, want)


class TestRecordPageBufferModel:
    """Random operation sequences against the list-based model."""

    @settings(max_examples=150, deadline=None)
    @given(rpp=st.integers(1, 5), ops=st.lists(_buffer_op, max_size=40))
    def test_matches_list_model(self, rpp, ops):
        buf = RecordPageBuffer(("d", "s", "x"), _DTYPES, rpp)
        model = _ListPageModel(rpp)
        for op in ops:
            kind = op[0]
            if kind == "append":
                assert buf.append(*op[1]) == model.append(op[1])
            elif kind == "append_many":
                # int64 sources exercise the cast to the page dtypes
                cols = (
                    np.array([r[0] for r in op[1]], dtype=np.int64),
                    np.array([r[1] for r in op[1]], dtype=np.int64),
                    np.array([r[2] for r in op[1]], dtype=np.float64),
                )
                assert buf.append_many(*cols) == model.append_many(op[1])
            elif kind == "force_seal":
                buf.force_seal()
                model.force_seal()
            elif kind == "pop_sealed":
                got, want = buf.pop_sealed(op[1]), model.pop_sealed(op[1])
                assert len(got) == len(want)
                for page, recs in zip(got, want):
                    _assert_cols(page, recs)
            elif kind == "peek_all":
                _assert_cols(buf.peek_all(), model.records())
            elif kind == "drain_all":
                _assert_cols(buf.drain_all(), model.records())
                model.sealed, model.top = [], []
            else:
                state = buf.export_pages()
                # checkpoint format: the top page as Python scalar lists
                assert state["top"] == [[r[i] for r in model.top] for i in range(3)]
                assert all(type(v) in (int, float) for col in state["top"] for v in col)
                buf = RecordPageBuffer(("d", "s", "x"), _DTYPES, rpp)
                buf.restore_pages(state)
            exported = buf.export_pages()
            assert len(exported["sealed"]) == len(model.sealed)
            for page, recs in zip(exported["sealed"], model.sealed):
                _assert_cols(page, recs)
            assert buf.top_records == len(model.top)
            assert buf.sealed_pages == len(model.sealed)
            assert buf.pages_used == len(model.sealed) + (1 if model.top else 0)
            assert buf.n_records == len(model.records())


class TestByteStreamPager:
    def test_single_entry_within_page(self):
        p = ByteStreamPager(100)
        first, last, completed = p.append(40)
        assert (first, last) == (0, 0)
        assert list(completed) == []
        assert p.buffered_pages == 1

    def test_entry_completing_page(self):
        p = ByteStreamPager(100)
        p.append(60)
        first, last, completed = p.append(40)
        assert (first, last) == (0, 0)
        assert list(completed) == [0]
        assert p.final_partial_page() is None

    def test_spanning_entry(self):
        p = ByteStreamPager(100)
        first, last, completed = p.append(250)
        assert (first, last) == (0, 2)
        assert list(completed) == [0, 1]
        assert p.final_partial_page() == 2

    def test_offsets_accumulate(self):
        p = ByteStreamPager(100)
        p.append(30)
        p.append(30)
        assert p.offset == 60
        assert p.current_page == 0

    def test_reset(self):
        p = ByteStreamPager(100)
        p.append(250)
        p.reset()
        assert p.offset == 0 and p.buffered_pages == 0

    def test_positive_sizes_only(self):
        p = ByteStreamPager(100)
        with pytest.raises(ValueError):
            p.append(0)
        with pytest.raises(ValueError):
            ByteStreamPager(0)
