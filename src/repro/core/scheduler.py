"""Deterministic speculate/commit interval executor (DESIGN.md §11).

MultiLogVC's central claim is that concurrent processing of independent
vertex intervals keeps the flash channels saturated (paper §V, Fig. 3),
overlapping multi-log loading with vertex processing (§V-A3).  This
module is the engine's one group executor: every interval group of a
superstep is *speculated* (prepared and processed) into a
:class:`GroupWork`, and the accounting thread *commits* the results in
canonical interval order.  The serial run is the ``workers == 1`` case
of the same protocol, not a separate code path.

Speculate/commit split
----------------------
A superstep's interval groups are independent in synchronous mode: each
group consumes its own multi-log intervals, reads only the *current*
edge-log generation, and touches only its own vertices' values and edge
state.  What is **not** independent is the accounting -- simulated-time
charges, trace events, the active tracker, the next-generation multi-log
and the next edge-log generation all have a serial order that the
determinism contract (bit-exact results at any worker count) requires.

So the speculation phase of one group runs:

* multi-log ``consume`` + dest-sort + ``load_active`` with the device's
  thread-local deferred-charge queue armed and the units' shared
  cumulative scalars routed into a :class:`ConsumeLedger` (and the
  loader's into its deferred :class:`~repro.core.loader.LoadReport`);
* the vertex program, with ``send``/``send_many``/``send_batch`` routed
  into per-group buffers instead of the live next-generation multi-log.

The accounting thread then *commits* groups strictly in canonical order:
replays the deferred device charges, applies the ledgers, replays the
buffered sends through the live multi-log, evaluates the edge-log
decisions (whose active-vertex prediction depends on earlier groups'
sends, so it must happen here, not during speculation), charges the
compute meter and emits trace events -- producing exactly the same
state and event sequence at any worker count.

With one worker, :meth:`ParallelGroupScheduler.run` speculates each
group inline on the calling thread, just before its commit.  Group
``g + 1`` is therefore speculated only after group ``g`` committed,
which is what the order-dependent features need: asynchronous mode
consumes same-superstep updates committed by earlier groups, structural
mutation overlays earlier groups' edits, and the page cache's CLOCK
state and an armed fault plan only ever see the accounting thread.

Overlap model
-------------
The committed accounting is worker-count-invariant by design, so the
simulated-latency win of parallel execution is reported *alongside* it:
:class:`OverlapModel` assigns each group to a lane (``group % workers``)
and derives a per-superstep makespan from the busiest lane and the
busiest flash channel (:func:`repro.ssd.device.merge_overlap`).  The
cumulative counters feed the ``parallel_stats`` trace event and the
``scheduler.*`` metrics gauges; the bench's ``--workers`` column is
computed from them.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..ssd.device import ChargeOp, SimulatedSSD, merge_overlap
from .loader import LoadReport
from .multilog import ConsumeLedger
from .sortgroup import SortedGroup

#: One buffered scalar-path send: ``("send", dest, src, data)`` or
#: ``("send_many", dests, src, datas)`` -- replayed verbatim, in order,
#: through the live multi-log at commit.
SendOp = Tuple[Any, ...]


@dataclass
class PreparedGroup:
    """A group's consumed, sorted updates and its loaded vertex set."""

    interval_ids: List[int]
    sg: SortedGroup
    #: sorted union of message destinations and self-active vertices
    verts: np.ndarray
    #: ``None`` when ``verts`` is empty (nothing was loaded)
    report: Optional[LoadReport] = None
    #: executed I/O plan outcome (DESIGN.md §13); ``None`` when the
    #: planner is off.  Folded into the planner's cumulative tallies at
    #: the group's commit point, in canonical group order.
    io_plan: Optional[object] = None


def charge_rollup(charges: List[ChargeOp]) -> dict:
    """Summarise a deferred-charge queue by direction and storage class.

    The engine calls this at the commit point (right after
    :meth:`~repro.ssd.device.SimulatedSSD.commit`) to emit one
    ``group_load`` trace event describing exactly the I/O the group's
    preparation performed -- per-class page counts and total simulated
    time.  The queue is identical whichever thread speculated the
    group, so the trace is bit-identical at any worker count.
    """
    read_pages: dict = {}
    write_pages: dict = {}
    time_us = 0.0
    for op in charges:
        is_read, klass, pages, _nbytes, t = op[:5]
        table = read_pages if is_read else write_pages
        table[klass] = table.get(klass, 0) + pages
        time_us += t
    return {
        "read_pages_by_class": read_pages,
        "write_pages_by_class": write_pages,
        "io_time_us": time_us,
    }


@dataclass
class VertexWork:
    """Speculative outcome of one scalar-path ``process()`` call."""

    vid: int
    ops: List[SendOp]
    deactivated: bool
    edge_state_dirty: bool
    degree: int
    n_updates: int


@dataclass
class GroupWork:
    """Everything a worker speculated for one group, awaiting commit."""

    prepared: PreparedGroup
    ledger: ConsumeLedger
    #: batch fast path taken (``process_batch`` returned True)
    handled: bool = False
    #: batch path: the context (stay mask, degrees, es_flat) and the
    #: buffered ingest batches, in send order
    bctx: Any = None
    es_plan: Any = None
    sends: List[Any] = field(default_factory=list)
    #: scalar path: per-vertex speculation outcomes, in vertex order
    vertex_work: List[VertexWork] = field(default_factory=list)


SpeculateFn = Callable[[List[int]], GroupWork]


class ParallelGroupScheduler:
    """Window-bounded speculative executor yielding in canonical order.

    With ``workers > 1``, that many threads speculate on interval groups
    concurrently; the in-flight window is ``workers + 2`` so the
    accounting thread always finds the next canonical group finished
    (or nearly so) while memory stays bounded at a few groups' worth of
    buffered sends.  With ``workers == 1`` no thread is started: each
    group is speculated inline when the caller asks for it.
    """

    def __init__(self, device: SimulatedSSD, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.device = device
        self.workers = workers
        self._executor: Optional[ThreadPoolExecutor] = None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="interval-worker"
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ParallelGroupScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(
        self, groups: Iterable[List[int]], speculate: SpeculateFn
    ) -> Iterator[Tuple[GroupWork, List[ChargeOp]]]:
        """Yield ``(work, deferred_charges)`` per group, in plan order.

        Each speculation job runs inside the device's thread-local
        :meth:`~repro.ssd.device.SimulatedSSD.deferred` scope, so its
        I/O charges come back as a queue for the caller to commit at
        the canonical point.  Results are yielded strictly in the order
        groups appear in the plan, regardless of completion order.
        With one worker a group is speculated on the calling thread only
        when the caller resumes the generator, i.e. after the previous
        group was committed.
        """

        def job(group: List[int]) -> Tuple[GroupWork, List[ChargeOp]]:
            with self.device.deferred() as charges:
                work = speculate(group)
            return work, charges

        if self.workers == 1:
            for group in groups:
                yield job(group)
            return
        executor = self._ensure_executor()
        window = self.workers + 2
        pending: "deque[Future]" = deque()
        it = iter(groups)

        def submit_next() -> None:
            try:
                group = next(it)
            except StopIteration:
                return
            pending.append(executor.submit(job, group))

        for _ in range(window):
            submit_next()
        while pending:
            fut = pending.popleft()
            result = fut.result()
            submit_next()
            yield result


class OverlapModel:
    """Simulated-time overlap accounting for the parallel executor.

    Per superstep, each committed group contributes its preparation I/O
    plus commit compute time to a worker lane (``group % workers``) and
    its read charges to per-channel busy histograms.  At superstep end
    the overlapped bound is ``max(busiest lane, busiest channel)``; the
    difference to the serial sum is the modelled saving.  All exported
    counters are run-cumulative and monotonically non-decreasing (the
    ``parallel_stats`` trace contract checked by
    ``tools/validate_trace.py``).
    """

    def __init__(self, device: SimulatedSSD, workers: int) -> None:
        self.device = device
        self.workers = workers
        self._lane_us = np.zeros(workers, dtype=np.float64)
        self._busy_us = np.zeros(device.channels, dtype=np.float64)
        #: run-cumulative counters (exported via trace + gauges)
        self.groups = 0
        self.spec_us = 0.0
        self.saved_us = 0.0
        self.makespan_us = 0.0

    def register_metrics(self, metrics: MetricsRegistry) -> None:
        metrics.gauge("scheduler.workers", lambda: self.workers)
        metrics.gauge("scheduler.groups", lambda: self.groups)
        metrics.gauge("scheduler.spec_us", lambda: self.spec_us)
        metrics.gauge("scheduler.saved_us", lambda: self.saved_us)
        metrics.gauge("scheduler.makespan_us", lambda: self.makespan_us)

    def note_group(
        self, g_index: int, charges: List[ChargeOp], io_us: float, compute_us: float
    ) -> None:
        """Record one committed group's lane time and channel pressure."""
        self._lane_us[g_index % self.workers] += io_us + compute_us
        self._busy_us += self.device.channel_busy_us(charges)
        self.groups += 1

    def end_superstep(self, storage_us: float, compute_us: float) -> float:
        """Fold this superstep into the cumulative counters.

        ``storage_us``/``compute_us`` are the superstep's committed
        (worker-invariant) totals; the overlapped makespan is that total
        minus the modelled saving.  Returns the saving for this
        superstep.  Resets the per-superstep lane/channel state.
        """
        spec = float(self._lane_us.sum())
        bound = merge_overlap(self._lane_us, self._busy_us)
        saved = max(0.0, spec - bound)
        self.spec_us += spec
        self.saved_us += saved
        self.makespan_us += max(0.0, storage_us + compute_us - saved)
        self._lane_us[:] = 0.0
        self._busy_us[:] = 0.0
        return saved

    def snapshot(self) -> dict:
        """The ``parallel_stats`` trace payload (cumulative counters)."""
        return {
            "workers": int(self.workers),
            "groups": int(self.groups),
            "spec_us": float(self.spec_us),
            "saved_us": float(self.saved_us),
            "makespan_us": float(self.makespan_us),
        }
