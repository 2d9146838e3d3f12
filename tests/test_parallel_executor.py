"""Deterministic parallel interval executor (DESIGN.md §11) and the
API v1 surface that rode along with it: ``repro.engines()`` capability
introspection, the options validation matrix, and the worker-count
bit-exactness contract.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro import ENGINES, EngineError, EngineInfo, engines
from repro.algorithms import BFSProgram, DeltaPageRankProgram, MISProgram
from repro.config import ConfigError, SimConfig, small_test_config
from repro.core.engine import MultiLogVC
from repro.core.scheduler import OverlapModel, ParallelGroupScheduler
from repro.graph.datasets import small_rmat
from repro.graph.partition import VertexIntervals
from repro.obs import TraceRecorder
from repro.options import RELEVANT_OPTIONS, EngineOptions
from repro.recovery.validate import count_device_ops, crash_resume_experiment
from repro.ssd.device import SimulatedSSD, merge_overlap

GRAPH = lambda: small_rmat(n=256, m=2048, seed=3)

WORKER_COUNTS = (1, 2, 4, 8)

PROGRAMS = {
    "pagerank": lambda: DeltaPageRankProgram(),
    "bfs": lambda: BFSProgram(0),
    "mis": lambda: MISProgram(),
}


def run_with_workers(prog_factory, workers, steps=8, **opt_kwargs):
    cfg = small_test_config().with_workers(workers)
    tracer = TraceRecorder()
    opts = EngineOptions(min_intervals=4, **opt_kwargs)
    res = MultiLogVC(GRAPH(), prog_factory(), cfg, options=opts, tracer=tracer).run(
        steps, seed=0
    )
    return res, tracer.events


def strip_parallel(events):
    """Trace minus the worker-count-dependent ``parallel_stats`` events."""
    return [e.to_dict() for e in events if e.kind != "parallel_stats"]


class TestWorkerCountInvariance:
    """Bit-exact values/records/stats/traces at any worker count."""

    @pytest.mark.parametrize("alg", sorted(PROGRAMS))
    def test_parity_across_worker_counts(self, alg):
        base, base_ev = run_with_workers(PROGRAMS[alg], 1)
        for w in WORKER_COUNTS[1:]:
            res, ev = run_with_workers(PROGRAMS[alg], w)
            assert np.array_equal(base.values, res.values), f"values differ at w={w}"
            assert [r.to_dict() for r in base.supersteps] == [
                r.to_dict() for r in res.supersteps
            ], f"records differ at w={w}"
            assert base.stats == res.stats, f"stats differ at w={w}"
            assert strip_parallel(base_ev) == strip_parallel(ev), f"trace differs at w={w}"

    def test_parity_with_checkpointing(self):
        base, _ = run_with_workers(PROGRAMS["pagerank"], 1, checkpoint_every=2)
        for w in (2, 4):
            res, _ = run_with_workers(PROGRAMS["pagerank"], w, checkpoint_every=2)
            assert np.array_equal(base.values, res.values)
            assert base.stats == res.stats

    def test_parity_without_edgelog_and_fusing(self):
        base, base_ev = run_with_workers(
            PROGRAMS["bfs"], 1, enable_edgelog=False, enable_fusing=False
        )
        res, ev = run_with_workers(
            PROGRAMS["bfs"], 4, enable_edgelog=False, enable_fusing=False
        )
        assert np.array_equal(base.values, res.values)
        assert strip_parallel(base_ev) == strip_parallel(ev)

    def test_crash_resume_at_parallel_worker_count(self):
        # The crashed run executes serially (armed fault plan gates the
        # executor); the resumed run executes in parallel.  Worker-count
        # invariance is what makes values/records/stats still reconcile.
        cfg = small_test_config().with_workers(4)
        options = EngineOptions(checkpoint_every=2)
        total_ops, _ = count_device_ops(
            GRAPH, PROGRAMS["pagerank"], config=cfg, options=options, max_supersteps=8
        )
        report = crash_resume_experiment(
            GRAPH,
            PROGRAMS["pagerank"],
            config=cfg,
            options=options,
            crash_after_ops=int(total_ops * 0.6),
            max_supersteps=8,
        )
        assert report.crashed and not report.no_checkpoint
        assert report.ok, report.describe()


class TestParallelStatsTrace:
    def test_emitted_only_when_parallel(self):
        _, ev1 = run_with_workers(PROGRAMS["pagerank"], 1)
        _, ev4 = run_with_workers(PROGRAMS["pagerank"], 4)
        assert not [e for e in ev1 if e.kind == "parallel_stats"]
        ps = [e for e in ev4 if e.kind == "parallel_stats"]
        assert ps, "workers=4 run emitted no parallel_stats"
        supersteps = [e for e in ev4 if e.kind == "superstep_end"]
        assert len(ps) == len(supersteps)

    def test_counters_monotonic_and_saving_positive(self):
        _, ev = run_with_workers(PROGRAMS["pagerank"], 4, enable_fusing=False)
        ps = [e.fields for e in ev if e.kind == "parallel_stats"]
        for key in ("groups", "spec_us", "saved_us", "makespan_us"):
            series = [p[key] for p in ps]
            assert series == sorted(series), f"{key} not monotonic: {series}"
        assert all(p["workers"] == 4 for p in ps)
        # Many small unfused groups must overlap into a real saving.
        assert ps[-1]["saved_us"] > 0
        assert ps[-1]["makespan_us"] > 0

    def test_gated_to_serial_under_fault_plan(self):
        from repro.ssd import FaultPlan
        from repro.ssd.filesystem import SimFS

        cfg = small_test_config().with_workers(4)
        fs = SimFS(cfg)
        fs.device.install_faults(FaultPlan.crash_after(10**9))  # armed, never fires
        tracer = TraceRecorder()
        MultiLogVC(
            GRAPH(), DeltaPageRankProgram(), cfg, fs=fs,
            options=EngineOptions(min_intervals=4), tracer=tracer,
        ).run(4)
        assert not [e for e in tracer.events if e.kind == "parallel_stats"]


class TestSchedulerUnits:
    def test_merge_overlap(self):
        lanes = np.array([10.0, 30.0, 20.0])
        busy = np.array([5.0, 25.0])
        assert merge_overlap(lanes, busy) == 30.0
        assert merge_overlap(np.empty(0), np.empty(0)) == 0.0
        assert merge_overlap(np.array([1.0]), np.array([9.0])) == 9.0

    def test_scheduler_yields_in_canonical_order(self):
        device = SimulatedSSD(small_test_config())
        sched = ParallelGroupScheduler(device, 4)
        try:
            out = [w for w, _ in sched.run([[i] for i in range(20)], lambda g: g)]
        finally:
            sched.close()
        assert out == [[i] for i in range(20)]

    def test_scheduler_rejects_bad_worker_count(self):
        device = SimulatedSSD(small_test_config())
        with pytest.raises(ValueError):
            ParallelGroupScheduler(device, 0)

    def test_overlap_model_counters_monotonic(self):
        device = SimulatedSSD(small_test_config())
        model = OverlapModel(device, 2)
        model.note_group(0, [], 100.0, 10.0)
        model.note_group(1, [], 40.0, 5.0)
        saved = model.end_superstep(140.0, 15.0)
        snap1 = model.snapshot()
        assert saved > 0  # two lanes overlap: spec 155 vs bound 110
        assert snap1["groups"] == 2
        model.note_group(0, [], 50.0, 5.0)
        model.end_superstep(50.0, 5.0)
        snap2 = model.snapshot()
        for key in ("groups", "spec_us", "saved_us", "makespan_us"):
            assert snap2[key] >= snap1[key]


class TestNumWorkersKnob:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(num_workers=0).validate()
        assert small_test_config().with_workers(3).num_workers == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "5")
        assert SimConfig().num_workers == 5
        monkeypatch.setenv("REPRO_NUM_WORKERS", "junk")
        with pytest.raises(ConfigError, match="REPRO_NUM_WORKERS='junk'"):
            SimConfig()

    def test_option_overrides_config(self):
        res = repro.run(
            GRAPH(),
            DeltaPageRankProgram(),
            config=small_test_config(),
            options=EngineOptions(num_workers=2),
            max_supersteps=4,
        )
        assert res.metrics is not None
        assert res.metrics["scheduler.workers"] == 2

    def test_option_validation(self):
        with pytest.raises(EngineError, match="num_workers"):
            EngineOptions(num_workers=0).validate_for("multilogvc")
        with pytest.raises(EngineError, match="do not apply"):
            EngineOptions(num_workers=2).validate_for("graphchi")


class TestEnginesIntrospection:
    def test_consistent_with_registry(self):
        info = engines()
        assert set(info) == set(ENGINES)
        for name, i in info.items():
            assert isinstance(i, EngineInfo)
            assert i.options == RELEVANT_OPTIONS[name]

    def test_capability_derivations(self):
        info = engines()
        assert info["multilogvc"].supports_resume
        assert info["multilogvc"].supports_checkpoint
        assert not info["multilogvc"].in_memory
        assert [n for n, i in info.items() if i.in_memory] == ["oracle"]
        for name in ("graphchi", "grafboost", "gridgraph", "xstream", "oracle"):
            assert not info[name].supports_resume
            assert not info[name].supports_checkpoint

    def test_run_uses_capabilities_for_resume(self):
        from repro.recovery import CheckpointData

        fake = object.__new__(CheckpointData)
        for name, i in engines().items():
            if not i.supports_resume:
                with pytest.raises(EngineError, match="does not support resume_from"):
                    repro.run(
                        GRAPH(), DeltaPageRankProgram(), engine=name, resume_from=fake
                    )


#: One non-default sample value per EngineOptions field, for the matrix.
NON_DEFAULT_SAMPLES = {
    "mode": "async",
    "enable_edgelog": False,
    "enable_fusing": False,
    "min_intervals": 4,
    "intervals": VertexIntervals(np.array([0, 128, 256])),
    "adapted": True,
    "merge_fanout": 8,
    "grid_p": 4,
    "checkpoint_every": 2,
    "checkpoint_mode": "incremental",
    "cache_policy": "clock",
    "cache_bytes": 64 * 1024,
    "num_workers": 2,
    "io_plan": "coalesce",
    "readahead_pages": 16,
    "num_devices": 4,
    "placement": "stripe",
    "recompute": "full",
}


class TestOptionsValidationMatrix:
    def test_samples_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(EngineOptions)}
        assert set(NON_DEFAULT_SAMPLES) == fields
        defaults = EngineOptions()
        for name, value in NON_DEFAULT_SAMPLES.items():
            assert getattr(defaults, name) != value, f"{name} sample is the default"

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_stray_option_rejected(self, engine):
        relevant = RELEVANT_OPTIONS[engine]
        for name, value in NON_DEFAULT_SAMPLES.items():
            opts = EngineOptions(**{name: value})
            if name in relevant:
                opts.validate_for(engine)  # must not raise
            else:
                with pytest.raises(EngineError, match="do not apply"):
                    opts.validate_for(engine)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_relevant_options_accepted_together(self, engine):
        kw = {n: NON_DEFAULT_SAMPLES[n] for n in RELEVANT_OPTIONS[engine]}
        EngineOptions(**kw).validate_for(engine)

    def test_cache_options_conflict_with_explicit_fs(self):
        from repro.ssd.filesystem import SimFS

        fs = SimFS(small_test_config())
        with pytest.raises(EngineError, match="explicit fs"):
            EngineOptions(cache_policy="clock").validate_for("multilogvc", fs=fs)
        with pytest.raises(EngineError, match="explicit fs"):
            MultiLogVC(
                GRAPH(), DeltaPageRankProgram(), small_test_config(), fs=fs,
                options=EngineOptions(cache_bytes=4096),
            )


class TestOptionsReplace:
    def test_replace_returns_updated_copy(self):
        base = EngineOptions(checkpoint_every=4)
        fast = base.replace(num_workers=8)
        assert fast.num_workers == 8
        assert fast.checkpoint_every == 4
        assert base.num_workers is None  # original untouched

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            EngineOptions().replace(warp_speed=True)
