"""Batch-kernel parity and worker-count determinism.

Two guarantees from the hot-path overhaul, both exact:

* every algorithm with a ``process_batch`` kernel computes the *same*
  values, activation traces and message counts as its scalar
  ``process`` path, in both sync and async modes, on multiple graphs;
* the speculate/commit executor at 4 workers reproduces the one-worker
  run bit-for-bit -- batch kernels, scalar kernels and batches the
  program declines alike: identical :class:`SuperstepRecord` streams,
  values, page counters, simulated timing and traces.
"""

import threading

import numpy as np
import pytest

from repro.config import small_test_config
from repro.core import MultiLogVC
from repro.core.batch import segment_min, segment_mode, segment_sum
from repro.graph.datasets import small_rmat
from repro.obs import TraceRecorder
from repro.algorithms import (
    BFSProgram,
    CommunityDetectionProgram,
    DeltaPageRankProgram,
    GraphColoringProgram,
    MISProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.algorithms.coloring import coloring_is_proper
from repro.algorithms.mis import is_independent_set, is_maximal
from repro.options import EngineOptions


def scalar_variant(prog):
    prog.supports_batch = False
    return prog


# (factory, needs weighted graph, max supersteps)
BATCH_PROGRAMS = [
    pytest.param(lambda: DeltaPageRankProgram(threshold=1e-3), False, 12, id="pagerank"),
    pytest.param(lambda: BFSProgram(0), False, 30, id="bfs"),
    pytest.param(lambda: WCCProgram(), False, 40, id="wcc"),
    pytest.param(lambda: SSSPProgram(source=0), True, 30, id="sssp"),
    pytest.param(lambda: CommunityDetectionProgram(), False, 10, id="cdlp"),
    pytest.param(lambda: GraphColoringProgram(), False, 20, id="coloring"),
    pytest.param(lambda: MISProgram(), False, 20, id="mis"),
]


def graph_for(seed: int, weighted: bool):
    return small_rmat(n=256, m=2048, seed=seed, weighted=weighted)


def run_pair(factory, weighted, steps, mode, seed):
    """Run batch and scalar variants on the same graph; return both results."""
    cfg = small_test_config()
    g = graph_for(seed, weighted)
    batch = MultiLogVC(g, factory(), cfg, options=EngineOptions(mode=mode, min_intervals=4)).run(steps)
    scalar = MultiLogVC(g, scalar_variant(factory()), cfg, options=EngineOptions(mode=mode, min_intervals=4)).run(steps)
    return batch, scalar


class TestBatchScalarParity:
    """Exact equality between batch and scalar kernels, everywhere."""

    @pytest.mark.parametrize("factory,weighted,steps", BATCH_PROGRAMS)
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_exact_parity(self, factory, weighted, steps, mode, seed):
        batch, scalar = run_pair(factory, weighted, steps, mode, seed)
        assert np.array_equal(
            np.nan_to_num(batch.values, posinf=-1),
            np.nan_to_num(scalar.values, posinf=-1),
        )
        assert np.array_equal(batch.activity_trace(), scalar.activity_trace())
        assert [r.messages_sent for r in batch.supersteps] == [
            r.messages_sent for r in scalar.supersteps
        ]
        assert [r.updates_processed for r in batch.supersteps] == [
            r.updates_processed for r in scalar.supersteps
        ]
        assert batch.n_supersteps == scalar.n_supersteps

    def test_batch_kernels_actually_engaged(self):
        """Guard against silently falling back to scalar everywhere."""
        for factory, weighted, _ in [
            (lambda: SSSPProgram(source=0), True, 0),
            (lambda: CommunityDetectionProgram(), False, 0),
            (lambda: GraphColoringProgram(), False, 0),
            (lambda: MISProgram(), False, 0),
        ]:
            assert factory().supports_batch

    def test_coloring_batch_result_is_proper(self):
        cfg = small_test_config()
        g = graph_for(3, False)
        r = MultiLogVC(g, GraphColoringProgram(), cfg).run(50)
        assert coloring_is_proper(g, r.values)

    def test_mis_batch_result_is_maximal_independent(self):
        cfg = small_test_config()
        g = graph_for(3, False)
        r = MultiLogVC(g, MISProgram(), cfg).run(60)
        assert is_independent_set(g, r.values)
        assert is_maximal(g, r.values)


def records_equal(a, b):
    """Bit-exact comparison of two SuperstepRecord lists."""
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


PIPELINE_PROGRAMS = [
    pytest.param(lambda: DeltaPageRankProgram(threshold=1e-3), False, id="pagerank"),
    pytest.param(lambda: SSSPProgram(source=0), True, id="sssp"),
    pytest.param(lambda: CommunityDetectionProgram(), False, id="cdlp"),
    pytest.param(lambda: GraphColoringProgram(), False, id="coloring"),
    pytest.param(lambda: MISProgram(), False, id="mis"),
]


class DecliningPageRank(DeltaPageRankProgram):
    """PageRank whose batch kernel declines every group starting at an
    odd vertex id, and every group of odd supersteps: those groups fall
    back to the scalar ``process`` path inside the same superstep."""

    def process_batch(self, bctx):
        if bctx.superstep % 2 or int(bctx.vids[0]) % 2:
            return False
        return super().process_batch(bctx)


def run_workers(g, prog, workers, steps, **opt_kwargs):
    cfg = small_test_config().with_workers(workers)
    tracer = TraceRecorder()
    opts = EngineOptions(min_intervals=4, **opt_kwargs)
    return MultiLogVC(g, prog, cfg, options=opts, tracer=tracer).run(steps, seed=0)


def assert_bit_exact(a, b):
    assert np.array_equal(
        np.nan_to_num(a.values, posinf=-1), np.nan_to_num(b.values, posinf=-1)
    )
    assert records_equal(a.supersteps, b.supersteps)
    assert a.pages_read == b.pages_read
    assert a.pages_written == b.pages_written
    assert a.stats.total_time_us == b.stats.total_time_us
    assert a.compute_time_us == b.compute_time_us
    # parallel_stats is the only worker-count-dependent trace kind.
    strip = lambda r: [e.to_dict() for e in r.trace if e.kind != "parallel_stats"]
    assert strip(a) == strip(b)


class TestWorkerCountDeterminism:
    """The executor at W=4 must be bit-identical to W=1 (inline)."""

    @pytest.mark.parametrize("factory,weighted", PIPELINE_PROGRAMS)
    def test_w1_vs_w4_identical(self, factory, weighted):
        g = graph_for(3, weighted)
        serial, parallel = (run_workers(g, factory(), w, 12) for w in (1, 4))
        assert_bit_exact(serial, parallel)

    @pytest.mark.parametrize("factory,weighted", PIPELINE_PROGRAMS)
    def test_scalar_kernels_w1_vs_w4_identical(self, factory, weighted):
        g = graph_for(3, weighted)
        serial, parallel = (
            run_workers(g, scalar_variant(factory()), w, 12) for w in (1, 4)
        )
        assert_bit_exact(serial, parallel)
        assert not any(
            e.fields["batched"] for e in serial.trace if e.kind == "group_process"
        )

    def test_declined_batch_w1_vs_w4_identical(self):
        g = graph_for(11, False)
        serial, parallel = (run_workers(g, DecliningPageRank(), w, 10) for w in (1, 4))
        assert_bit_exact(serial, parallel)
        batched = [e.fields["batched"] for e in serial.trace if e.kind == "group_process"]
        assert True in batched and False in batched
        # Declining only changes which kernel ran, never the values.
        plain = run_workers(g, DeltaPageRankProgram(), 1, 10)
        assert np.array_equal(serial.values, plain.values)

    def test_default_intervals_identical(self):
        g = graph_for(11, False)
        baseline = None
        for workers in (1, 4):
            cfg = small_test_config().with_workers(workers)
            r = MultiLogVC(g, DeltaPageRankProgram(threshold=1e-3), cfg).run(10, seed=0)
            if baseline is None:
                baseline = r
            else:
                assert np.array_equal(baseline.values, r.values)
                assert records_equal(baseline.supersteps, r.supersteps)
                assert baseline.stats.total_time_us == r.stats.total_time_us

    def test_one_worker_speculates_inline_after_each_commit(self):
        # Async mode, mutation, the cache and fault plans rely on this:
        # group g+1 is speculated on the calling thread, and only once
        # group g has been handed back (and committed).
        from repro.core.scheduler import ParallelGroupScheduler
        from repro.ssd.device import SimulatedSSD

        events = []

        def speculate(group):
            events.append(("speculate", group[0], threading.current_thread()))
            return group

        sched = ParallelGroupScheduler(SimulatedSSD(small_test_config()), 1)
        for work, charges in sched.run([[i] for i in range(4)], speculate):
            events.append(("commit", work[0], threading.current_thread()))
        assert [e[:2] for e in events] == [
            (kind, i) for i in range(4) for kind in ("speculate", "commit")
        ]
        assert all(e[2] is threading.main_thread() for e in events)
        assert sched._executor is None

    def test_async_mode_forces_one_worker_but_still_runs(self):
        # Async consumes same-superstep updates of earlier groups, so it
        # runs with one worker whatever is requested.
        g = graph_for(3, False)
        runs = [run_workers(g, WCCProgram(), w, 40, mode="async") for w in (1, 4)]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert records_equal(runs[0].supersteps, runs[1].supersteps)
        assert not [e for e in runs[1].trace if e.kind == "parallel_stats"]


class TestSegmentedHelpers:
    """The segmented reductions behind the new batch kernels."""

    def test_segment_min_basic(self):
        v = np.array([5.0, 2.0, 9.0, 1.0, 4.0])
        off = np.array([0, 2, 2, 5])
        out = segment_min(v, off, default=np.inf)
        assert list(out) == [2.0, np.inf, 1.0]

    def test_segment_min_where(self):
        v = np.array([5.0, -1.0, 9.0, -1.0, 4.0])
        off = np.array([0, 2, 5])
        out = segment_min(v, off, where=v >= 0, default=np.inf)
        assert list(out) == [5.0, 4.0]

    def test_segment_min_all_filtered(self):
        v = np.array([-1.0, -2.0])
        off = np.array([0, 2])
        out = segment_min(v, off, where=v >= 0, default=123.0)
        assert list(out) == [123.0]

    def test_segment_sum(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        off = np.array([0, 1, 1, 4])
        out = segment_sum(v, off)
        assert list(out) == [1.0, 0.0, 9.0]

    def test_segment_sum_where(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        off = np.array([0, 2, 4])
        out = segment_sum(v, off, where=v > 1.5)
        assert list(out) == [2.0, 7.0]

    def test_segment_mode_majority(self):
        v = np.array([3.0, 1.0, 3.0, 2.0, 2.0, 2.0])
        off = np.array([0, 3, 6])
        out = segment_mode(v, off)
        assert list(out) == [3.0, 2.0]

    def test_segment_mode_tie_prefers_smaller(self):
        # Matches the scalar frequent_label tie-break: smallest value wins.
        v = np.array([7.0, 4.0, 4.0, 7.0])
        off = np.array([0, 4])
        out = segment_mode(v, off)
        assert list(out) == [4.0]

    def test_segment_mode_empty_segment_default(self):
        v = np.array([5.0])
        off = np.array([0, 0, 1])
        out = segment_mode(v, off, default=-1.0)
        assert list(out) == [-1.0, 5.0]
