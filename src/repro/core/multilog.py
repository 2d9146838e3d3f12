"""Multi-Log Update Unit (paper §V-A).

Outgoing messages are appended to one log per destination *vertex
interval*.  Hot path: ``send`` maps the destination to its interval
(the paper's ``vId2IntervalMap``), appends ``<v_dest, m>`` to that
interval's top page in the multi-log memory buffer, and marks the
destination as known-active for the next superstep.

Buffering and eviction follow §V-A3: the buffer holds page-sized
chunks, at least one (top) page per interval; when free buffer space
drops below the low watermark, sealed (full) pages are appended to the
corresponding per-interval log files -- which are interspersed across
all SSD channels -- until the high watermark is restored.  If sealed
pages alone cannot free enough space, the largest partial top pages are
force-sealed and flushed too.

``consume`` is the read half used by the sort-and-group unit: it pulls
an interval group's flushed pages back from flash plus whatever is
still buffered in memory, and resets that interval's log.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import SimConfig
from ..errors import ProgramError
from ..graph.partition import VertexIntervals
from ..mem.budget import MemoryBudget
from ..mem.pagebuffer import RecordPageBuffer
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..ssd.file import PageFile
from ..ssd.filesystem import SimFS
from .active import ActiveTracker
from .update import UPDATE_DTYPES, UPDATE_FIELDS, UpdateBatch, stable_order

KLASS_MLOG = "mlog"


class ConsumeLedger:
    """Deferred shared-scalar deltas from a worker-thread group prepare.

    The parallel interval executor (DESIGN.md §11) runs
    :meth:`MultiLogUnit.consume` and the sort/group step on worker
    threads speculatively.  Per-interval state (buffers, files,
    counters) is disjoint across groups and safe to touch in place, but
    the units' *cumulative* scalars (float I/O-time accumulators, page
    and record tallies) are shared: mutating them from workers would
    race, and float accumulation order would depend on scheduling.  A
    ledger records those deltas instead; the accounting thread applies
    them at the group's commit point, in canonical group order.
    ``io_times`` keeps the individual per-read durations (not a sum) so
    float accumulation replays the exact serial addition sequence.
    """

    __slots__ = ("io_times", "pages_delta", "sort_groups", "sort_records")

    def __init__(self) -> None:
        self.io_times: List[float] = []
        self.pages_delta = 0
        self.sort_groups = 0
        self.sort_records = 0


class MultiLogUnit:
    """Per-interval update logs with page-buffered, watermarked eviction."""

    def __init__(
        self,
        fs: SimFS,
        intervals: VertexIntervals,
        config: SimConfig,
        budget: MemoryBudget,
        name: str = "mlog",
        tracker: Optional[ActiveTracker] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.fs = fs
        self.intervals = intervals
        self.config = config
        self.budget = budget
        self.name = name
        self.tracker = tracker
        self.tracer = tracer
        #: cumulative eviction tallies (observability gauges read these)
        self.flushes = 0
        self.flushed_pages = 0
        k = intervals.n_intervals
        rpp = config.updates_per_page
        self._buffers: List[RecordPageBuffer] = [
            RecordPageBuffer(UPDATE_FIELDS, UPDATE_DTYPES, rpp) for _ in range(k)
        ]
        self._files: List[Optional[PageFile]] = [None] * k
        self.counters = np.zeros(k, dtype=np.int64)
        #: monotonic count of every update ever appended (never reset by
        #: consume); engines diff it to report per-superstep sends.
        self.appended = 0
        self._pages_used = 0
        self.io_time_us = 0.0
        # Dense vertex -> interval map for the hot path.
        self._v2i = np.empty(intervals.n_vertices, dtype=np.int32)
        for i, lo, hi in intervals:
            self._v2i[lo:hi] = i
        self._n_vertices = intervals.n_vertices
        self._capacity = budget.multilog_pages
        mem = config.memory
        self._low_free = int(np.floor(mem.evict_low_free_fraction * self._capacity))
        self._high_free = int(np.floor(mem.evict_high_free_fraction * self._capacity))
        # Gauges over tallies the unit keeps anyway: zero hot-path cost.
        metrics.gauge(f"multilog.{name}.appended", lambda: self.appended)
        metrics.gauge(f"multilog.{name}.pages_buffered", lambda: self._pages_used)
        metrics.gauge(f"multilog.{name}.flushes", lambda: self.flushes)
        metrics.gauge(f"multilog.{name}.flushed_pages", lambda: self.flushed_pages)
        metrics.gauge(f"multilog.{name}.io_time_us", lambda: self.io_time_us)

    # -- geometry / introspection -------------------------------------------

    @property
    def n_intervals(self) -> int:
        return self.intervals.n_intervals

    @property
    def pages_buffered(self) -> int:
        return self._pages_used

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    @property
    def total_messages(self) -> int:
        return int(self.counters.sum())

    def message_count(self, i: int) -> int:
        return int(self.counters[i])

    def estimated_bytes(self, i: int) -> int:
        """First-order log-size estimate from the message counter (§V-B)."""
        return int(self.counters[i]) * self.config.records.update_bytes

    def estimated_bytes_all(self) -> np.ndarray:
        """Per-interval log-size estimates as one vector (planning path)."""
        return self.counters * self.config.records.update_bytes

    def pages_on_flash(self, i: int) -> int:
        f = self._files[i]
        return f.n_pages if f is not None else 0

    # -- hot path ----------------------------------------------------------------

    def send(self, dest: int, src: int, data: float) -> None:
        """Append one update to the destination interval's log."""
        if not 0 <= dest < self._n_vertices:
            raise ProgramError(f"send target {dest} outside graph [0, {self._n_vertices})")
        i = int(self._v2i[dest])
        buf = self._buffers[i]
        if buf.top_records == 0:
            self._pages_used += 1  # a fresh top page is now occupied
        buf.append(dest, src, data)
        self.counters[i] += 1
        self.appended += 1
        if self.tracker is not None:
            self.tracker.note_message(dest)
        if self._capacity - self._pages_used < self._low_free:
            self._evict()

    def send_many(self, dests: np.ndarray, src: int, datas: np.ndarray) -> None:
        """Vectorised multi-destination append (one source vertex)."""
        dests = np.asarray(dests, dtype=np.int64)
        if dests.size == 0:
            return
        if dests.min() < 0 or dests.max() >= self._n_vertices:
            raise ProgramError("send target outside graph")
        datas = np.asarray(datas, dtype=np.float64)
        if datas.shape != dests.shape:
            raise ProgramError("send_many dests/datas length mismatch")
        srcs = np.full(dests.shape[0], src, dtype=np.int64)
        self._append_bulk(dests, srcs, datas)
        if self.tracker is not None:
            self.tracker.note_messages(dests)

    def ingest(self, batch: UpdateBatch) -> None:
        """Bulk-load a pre-built batch (seed messages, batch-path sends)."""
        if batch is None or batch.n == 0:
            return
        dests = batch.dest.astype(np.int64)
        self._append_bulk(dests, batch.src.astype(np.int64), batch.data)
        if self.tracker is not None:
            self.tracker.note_messages(dests)

    def _append_bulk(self, dests: np.ndarray, srcs: np.ndarray, datas: np.ndarray) -> None:
        """Append a record batch, honouring the buffer watermark.

        Bulk appends are chunked so the buffer never transiently exceeds
        its capacity by more than one eviction quantum -- otherwise a
        large burst would be absorbed "for free" in memory and then
        spilled via force-sealed partial pages (write amplification the
        per-record path never exhibits).
        """
        rpp = self.config.updates_per_page
        chunk = max(rpp, self._high_free * rpp)
        ivals = self._v2i[dests]
        # One stable sort buckets the batch by interval while keeping
        # each interval's records in arrival order (same per-interval
        # subsequences as record-at-a-time sends).
        order = stable_order(ivals)
        counts = np.bincount(ivals)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        cols = [c[order].astype(t, copy=False) for c, t in zip((dests, srcs, datas), UPDATE_DTYPES)]
        for i in np.flatnonzero(counts).tolist():
            b0, b1 = bounds[i], bounds[i + 1]
            buf = self._buffers[i]
            for pos in range(b0, b1, chunk):
                end = min(pos + chunk, b1)
                before = buf.pages_used
                buf.append_many(*(c[pos:end] for c in cols))
                self._pages_used += buf.pages_used - before
                if self._capacity - self._pages_used < self._low_free:
                    self._evict()
            self.counters[i] += b1 - b0
        self.appended += int(dests.shape[0])

    # -- eviction -----------------------------------------------------------------

    def _file(self, i: int) -> PageFile:
        f = self._files[i]
        if f is None:
            # Interval-affinity hint: under a device array's "affinity"
            # placement each interval's log lands whole on one device
            # (DESIGN.md §14); inert on a single device.
            f = self.fs.create_page_file(
                f"{self.name}.i{i}", KLASS_MLOG, overwrite=True, affinity=i
            )
            self._files[i] = f
        return f

    def _evict(self) -> None:
        """Flush buffered pages to flash until the high watermark holds.

        All evicted pages are submitted as **one** write batch spanning
        every touched log file -- the paper's §V-A3 concurrent eviction
        across all SSD channels ("multiple log page evictions may occur
        concurrently ... most of the SSD bandwidth can be utilized").
        """
        target_used = self._capacity - self._high_free
        batch_channels = []
        batch_devices = []
        # Pass 1: sealed (full) pages, most-backed-up intervals first.
        order = sorted(
            range(self.n_intervals),
            key=lambda i: self._buffers[i].sealed_pages,
            reverse=True,
        )
        for i in order:
            if self._pages_used <= target_used:
                break
            buf = self._buffers[i]
            if buf.sealed_pages == 0:
                continue
            take = min(buf.sealed_pages, self._pages_used - target_used)
            pages = buf.pop_sealed(take)
            useful = [len(p[0]) * self.config.records.update_bytes for p in pages]
            ids, _ = self._file(i).append_pages(pages, useful_bytes=useful, charge=False)
            batch_channels.append(self._file(i).channels_of(ids))
            batch_devices.append(self._file(i).devices_of(ids))
            self._pages_used -= len(pages)
        # Pass 2: force-seal the largest partial top pages (rare; only
        # when sealed pages alone cannot restore the watermark).
        if self._pages_used > target_used:
            order = sorted(
                range(self.n_intervals),
                key=lambda i: self._buffers[i].top_records,
                reverse=True,
            )
            for i in order:
                if self._pages_used <= target_used:
                    break
                buf = self._buffers[i]
                if buf.top_records == 0:
                    continue
                buf.force_seal()
                pages = buf.pop_sealed()
                useful = [len(p[0]) * self.config.records.update_bytes for p in pages]
                ids, _ = self._file(i).append_pages(pages, useful_bytes=useful, charge=False)
                batch_channels.append(self._file(i).channels_of(ids))
                batch_devices.append(self._file(i).devices_of(ids))
                self._pages_used -= len(pages)
        if batch_channels:
            channels = np.concatenate(batch_channels)
            # devices_of is None for every file on a single device, a
            # full per-page vector on an array -- never mixed.
            devices = None
            if batch_devices[0] is not None:
                devices = np.concatenate(batch_devices)
            t = self.fs.device.write_batch(channels, KLASS_MLOG, devices=devices)
            self.io_time_us += t
            self.flushes += 1
            self.flushed_pages += int(channels.shape[0])
            if self.tracer.enabled:
                self.tracer.emit(
                    "mlog_flush",
                    unit=self.name,
                    pages=int(channels.shape[0]),
                    time_us=t,
                )

    # -- consumption (sort-and-group read path) ----------------------------------------

    def consume(
        self, interval_ids: List[int], ledger: Optional[ConsumeLedger] = None, plan=None
    ) -> UpdateBatch:
        """Load and clear the logs of an interval group.

        Reads each interval's flushed pages back from flash (charged to
        this unit's ``io_time_us``), drains the still-buffered records,
        and resets counters.  Returns the concatenated unsorted batch.

        With ``ledger`` (parallel executor, worker thread), the shared
        cumulative scalars -- ``io_time_us`` and the buffered-page count
        -- are recorded on the ledger instead of mutated in place; the
        caller applies them via :meth:`apply_consume_ledger` at the
        group's commit point.  Per-interval state is group-local and is
        still cleared in place.

        With ``plan`` (DESIGN.md §13), each log's page demand is queued
        on the plan instead of charged per file -- crucially *before*
        the ``truncate()`` below moves the file's page ids -- and the
        caller attributes the coalesced wave time after the plan
        executes, so per-read durations are not appended here.
        """
        pages: List[tuple] = []
        for i in interval_ids:
            f = self._files[i]
            if f is not None and f.n_pages:
                payloads, t = f.read_all(plan=plan)
                if plan is not None:
                    pass  # wave time attributed from the plan outcome
                elif ledger is None:
                    self.io_time_us += t
                else:
                    ledger.io_times.append(t)
                pages.extend(payloads)
                f.truncate()
            buf = self._buffers[i]
            if ledger is None:
                self._pages_used -= buf.pages_used
            else:
                ledger.pages_delta -= buf.pages_used
            buf.force_seal()
            pages.extend(buf.pop_sealed())
            self.counters[i] = 0
        if not pages:
            return UpdateBatch.empty()
        return UpdateBatch(*(np.concatenate(col) for col in zip(*pages)))

    def apply_consume_ledger(self, ledger: ConsumeLedger) -> None:
        """Apply a worker-thread consume's deferred deltas (commit point).

        The individual float durations are re-added one by one so the
        accumulator goes through the exact same sequence of partial sums
        as a serial run -- bit-identical ``io_time_us`` at any worker
        count (it is exported into checkpoints and metrics gauges).
        """
        for t in ledger.io_times:
            self.io_time_us += t
        self._pages_used += ledger.pages_delta

    def reset(self) -> None:
        """Drop all buffered and flushed updates (end of run)."""
        for i in range(self.n_intervals):
            buf = self._buffers[i]
            self._pages_used -= buf.pages_used
            buf.drain_all()
            f = self._files[i]
            if f is not None:
                f.truncate()
            self.counters[i] = 0

    # -- checkpoint/restore ---------------------------------------------------

    def export_state(self) -> dict:
        """Deep-copy of everything a resumed run needs from this unit.

        Flushed log pages are included because the simulated flash lives
        in the engine's process image; charging-wise they are already
        durable, so a checkpoint only pays for the *in-memory* tails
        (see :meth:`repro.recovery.checkpoint.CheckpointManager.write`).
        The monotonic ``appended`` counter and the I/O tallies are
        exported too -- they feed trace fields, and post-resume traces
        must be bit-identical to an uninterrupted run's.
        """
        files = []
        for f in self._files:
            if f is None:
                files.append(None)
            else:
                files.append({
                    "channel_offset": f.channel_offset,
                    "payloads": [tuple(np.array(c, copy=True) for c in p) for p in f._payloads],
                    "useful": list(f._useful),
                })
        return {
            "files": files,
            "buffers": [b.export_pages() for b in self._buffers],
            "counters": self.counters.copy(),
            "appended": self.appended,
            "pages_used": self._pages_used,
            "io_time_us": self.io_time_us,
            "flushes": self.flushes,
            "flushed_pages": self.flushed_pages,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` on a freshly constructed unit.

        Log files are re-adopted at their *recorded* channel offsets so
        restored reads cost exactly what they would have in the original
        run (see :meth:`repro.ssd.filesystem.SimFS.adopt_page_file`).
        """
        for i, fstate in enumerate(state["files"]):
            if fstate is None:
                self._files[i] = None
                continue
            f = self.fs.adopt_page_file(
                f"{self.name}.i{i}", KLASS_MLOG, fstate["channel_offset"], affinity=i
            )
            f._payloads = [tuple(np.array(c, copy=True) for c in p) for p in fstate["payloads"]]
            f._useful = list(fstate["useful"])
            self._files[i] = f
        for buf, bstate in zip(self._buffers, state["buffers"]):
            buf.restore_pages(bstate)
        self.counters[:] = state["counters"]
        self.appended = int(state["appended"])
        self._pages_used = int(state["pages_used"])
        self.io_time_us = float(state["io_time_us"])
        self.flushes = int(state["flushes"])
        self.flushed_pages = int(state["flushed_pages"])
