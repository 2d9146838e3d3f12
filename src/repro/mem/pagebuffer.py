"""Page-granular in-memory staging buffers.

Two staging primitives shared by the logging components:

* :class:`RecordPageBuffer` -- fixed-size records (the multi-log's
  ``<v_dest, m>`` updates, GraFBoost's single-log entries).  Records
  accumulate in a preallocated *top page*; when the top page fills it
  is *sealed* (handed over as per-field column arrays, never written
  again) and a fresh top page is allocated (paper §V-A3
  "a top page is maintained in the buffer ... a new page is allocated
  and becomes the top page").

* :class:`BytePackBuffer` -- variable-size entries packed by byte count
  (the edge log, where a vertex contributes a header plus one entry per
  out-edge).

Neither knows about the SSD: owners pop sealed pages and append them to
a :class:`~repro.ssd.file.PageFile` when eviction policy says so.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from ..errors import BudgetExceededError


class RecordPageBuffer:
    """Staging buffer for fixed-size records of one log.

    The top page is one preallocated structured record array with a
    fill cursor, so a record append is a single row assignment and a
    bulk append is one slice copy per field.  Sealing hands the full
    array over as the page and allocates a fresh top page; a sealed
    page is a tuple of per-field column views of that array (the
    payload format :class:`~repro.ssd.file.PageFile` and checkpoints
    carry).

    Parameters
    ----------
    fields:
        Names of the record columns (e.g. ``("dest", "src", "data")``).
    dtypes:
        NumPy dtypes per column.
    records_per_page:
        Capacity of one SSD page in records.
    """

    def __init__(self, fields: Sequence[str], dtypes: Sequence[Any], records_per_page: int) -> None:
        if records_per_page < 1:
            raise BudgetExceededError("a page must hold at least one record")
        if len(fields) != len(dtypes):
            raise ValueError("fields/dtypes length mismatch")
        self.fields = tuple(fields)
        self.dtypes = tuple(np.dtype(d) for d in dtypes)
        self.records_per_page = int(records_per_page)
        self._record = np.dtype(list(zip(self.fields, self.dtypes)))
        self._sealed: List[Tuple[np.ndarray, ...]] = []
        self._new_top()

    # -- appends -----------------------------------------------------------

    def _new_top(self) -> None:
        self._top = np.empty(self.records_per_page, dtype=self._record)
        self._cols = tuple(self._top[f] for f in self.fields)
        self._fill = 0

    def _seal_top(self) -> None:
        n = self._fill
        page = self._cols if n == self.records_per_page else tuple(c[:n] for c in self._cols)
        self._sealed.append(page)
        self._new_top()

    def append(self, *values: Any) -> bool:
        """Append one record; returns True if this filled (sealed) a page."""
        n = self._fill
        self._top[n] = values
        self._fill = n + 1
        if n + 1 == self.records_per_page:
            self._seal_top()
            return True
        return False

    def append_many(self, *columns: np.ndarray) -> int:
        """Append a batch of records; returns number of pages sealed."""
        n = len(columns[0])
        rpp = self.records_per_page
        sealed = 0
        pos = 0
        while pos < n:
            fill = self._fill
            take = min(rpp - fill, n - pos)
            for col, src in zip(self._cols, columns):
                col[fill : fill + take] = src[pos : pos + take]
            pos += take
            self._fill = fill + take
            if self._fill == rpp:
                self._seal_top()
                sealed += 1
        return sealed

    # -- observability ------------------------------------------------------

    def register_metrics(self, registry, prefix: str) -> None:
        """Register occupancy gauges under ``<prefix>.*``.

        Gauges are sampled only at snapshot time, so a registered
        buffer costs nothing on the append hot path.  ``registry`` is a
        :class:`repro.obs.MetricsRegistry` (duck-typed to avoid a
        package dependency from ``mem`` to ``obs``).
        """
        registry.gauge(f"{prefix}.pages_used", lambda: self.pages_used)
        registry.gauge(f"{prefix}.sealed_pages", lambda: self.sealed_pages)
        registry.gauge(f"{prefix}.records", lambda: self.n_records)

    # -- geometry -----------------------------------------------------------

    @property
    def top_records(self) -> int:
        return self._fill

    @property
    def sealed_pages(self) -> int:
        return len(self._sealed)

    @property
    def pages_used(self) -> int:
        """Buffer pages occupied: sealed pages plus a partial top page."""
        return self.sealed_pages + (1 if self._fill else 0)

    @property
    def n_records(self) -> int:
        # a force-sealed page holds fewer than records_per_page records
        return sum(page[0].shape[0] for page in self._sealed) + self._fill

    # -- draining -------------------------------------------------------------

    def pop_sealed(self, max_pages: int | None = None) -> List[Tuple[np.ndarray, ...]]:
        """Remove and return up to ``max_pages`` sealed pages (oldest first)."""
        k = self.sealed_pages if max_pages is None else min(max_pages, self.sealed_pages)
        out = self._sealed[:k]
        del self._sealed[:k]
        return out

    def force_seal(self) -> None:
        """Seal a partial top page (used when flushing everything)."""
        if self._fill:
            self._seal_top()

    def _concat(self, pages: List[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
        if not pages:
            return tuple(np.empty(0, dtype=dt) for dt in self.dtypes)
        return tuple(np.concatenate([p[i] for p in pages]) for i in range(len(self.fields)))

    def drain_all(self) -> Tuple[np.ndarray, ...]:
        """Consume every buffered record as one concatenated column set."""
        self.force_seal()
        cols = self._concat(self._sealed)
        self._sealed.clear()
        return cols

    def peek_all(self) -> Tuple[np.ndarray, ...]:
        """Like :meth:`drain_all` but without consuming the buffer."""
        parts = list(self._sealed)
        if self._fill:
            parts.append(tuple(c[: self._fill] for c in self._cols))
        return self._concat(parts)

    # -- checkpoint/restore ---------------------------------------------------

    def export_pages(self) -> dict:
        """Deep-copy the buffer contents, preserving page boundaries.

        Unlike :meth:`peek_all` this keeps sealed pages distinct from
        the partial top page, so a restored buffer flushes the exact
        same page sequence as the original would have -- which is what
        crash-recovery determinism needs.  The top page is exported as
        one list of Python scalars per field.
        """
        return {
            "sealed": [tuple(np.array(c, copy=True) for c in page) for page in self._sealed],
            "top": [c[: self._fill].tolist() for c in self._cols],
        }

    def restore_pages(self, state: dict) -> None:
        """Inverse of :meth:`export_pages`; replaces current contents."""
        self._sealed = [tuple(np.array(c, copy=True) for c in page) for page in state["sealed"]]
        self._new_top()
        top = state["top"]
        self._fill = len(top[0])
        for col, values in zip(self._cols, top):
            col[: self._fill] = values


class ByteStreamPager:
    """Byte-offset bookkeeping for an append-only page stream.

    Used by the edge log: variable-size entries (a vertex header plus
    its out-edge list) are appended to a conceptually infinite byte
    stream.  The pager maps each entry to the half-open *page* range it
    occupies and tells the caller which pages just became complete (full
    pages ready to be evicted to the SSD).  A high-degree vertex's entry
    may span multiple pages.
    """

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = int(page_size)
        self._offset = 0
        self._flushed_pages = 0

    @property
    def offset(self) -> int:
        """Total bytes appended so far."""
        return self._offset

    @property
    def current_page(self) -> int:
        """Page index the next appended byte lands on."""
        return self._offset // self.page_size

    @property
    def buffered_pages(self) -> int:
        """Pages touched but not yet reported complete (incl. partial)."""
        total = -(-self._offset // self.page_size) if self._offset else 0
        return total - self._flushed_pages

    def append(self, nbytes: int) -> Tuple[int, int, range]:
        """Append ``nbytes``; returns ``(first_page, last_page, completed)``.

        ``completed`` is the range of page indices that became *full*
        because of this append (ready for eviction, oldest first).
        """
        if nbytes <= 0:
            raise ValueError("entry must have positive size")
        first = self._offset // self.page_size
        self._offset += int(nbytes)
        last = (self._offset - 1) // self.page_size
        newly_full = self._offset // self.page_size  # pages fully behind offset
        completed = range(self._flushed_pages, newly_full)
        self._flushed_pages = newly_full
        return first, last, completed

    def final_partial_page(self) -> int | None:
        """Index of the trailing partial page, if any bytes remain on it."""
        if self._offset % self.page_size:
            return self._offset // self.page_size
        return None

    def reset(self) -> None:
        self._offset = 0
        self._flushed_pages = 0
