"""Layer map and per-layer metrics of the traced run.

:func:`targets` names the public methods whose calls are timed, per
layer (layers are named after ``repro`` modules).  :data:`PER_LAYER`
lists every per-layer metric with its unit, the direction that is
better, the end-to-end metric it should move and the workloads on which
it should move it.  :func:`layer_metrics` derives the values for one
traced operation from its spans and from the program's own counters
(``RunResult.stats``/``.metrics``/``.supersteps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import MultiLogVC, StreamSession, StreamStore
from repro.core.edgelog import EdgeLogOptimizer
from repro.core.loader import GraphLoaderUnit
from repro.core.multilog import MultiLogUnit
from repro.core.sortgroup import SortGroupUnit
from repro.io.plan import IOPlan
from repro.io.planner import SuperstepIOPlanner
from repro.mem.pagebuffer import RecordPageBuffer
from repro.mem.pagecache import PageCache
from repro.recovery.checkpoint import CheckpointManager
from repro.ssd.device import SimulatedSSD

from spans import inclusive_ns, self_times

#: Timed methods per layer.  The program's own kernels are added per
#: run by :func:`targets` (their class depends on the workload).
LAYER_METHODS: Dict[str, List[Tuple[type, str]]] = {
    "engine": [(MultiLogVC, "run")],
    "multilog": [
        (MultiLogUnit, "ingest"), (MultiLogUnit, "consume"),
        (MultiLogUnit, "send"), (MultiLogUnit, "send_many"),
        (MultiLogUnit, "apply_consume_ledger"),
        (RecordPageBuffer, "append_many"), (RecordPageBuffer, "pop_sealed"),
    ],
    "sortgroup": [
        (SortGroupUnit, "plan_groups"), (SortGroupUnit, "load_group"),
        (SortGroupUnit, "apply_ledger"),
    ],
    "loader": [
        (GraphLoaderUnit, "load_active"), (GraphLoaderUnit, "apply_report"),
        (GraphLoaderUnit, "writeback_edge_state"),
    ],
    "edgelog": [
        (EdgeLogOptimizer, "consider"), (EdgeLogOptimizer, "charge_read"),
        (EdgeLogOptimizer, "end_superstep"),
    ],
    "cache": [
        (PageCache, "access"), (PageCache, "admit"), (PageCache, "pin"),
        (PageCache, "unpin"), (PageCache, "invalidate_file"), (PageCache, "clear"),
    ],
    "io": [
        (IOPlan, "add"), (IOPlan, "add_readahead"), (IOPlan, "execute"),
        (SuperstepIOPlanner, "new_plan"), (SuperstepIOPlanner, "collect_readahead"),
        (SuperstepIOPlanner, "apply"),
    ],
    "ssd": [
        (SimulatedSSD, "read_batch"), (SimulatedSSD, "read_extent"),
        (SimulatedSSD, "read_plan"), (SimulatedSSD, "write_batch"),
        (SimulatedSSD, "commit"),
    ],
    "ckpt": [(CheckpointManager, "write")],
    "stream": [
        (StreamSession, "ingest"), (StreamSession, "apply_updates"),
        (StreamSession, "recompute"), (StreamStore, "materialize"),
        (StreamStore, "charge_rows"), (StreamStore, "charge_seed_scan"),
    ],
}

#: Layers whose self time is reported as ``<layer>.host_s``.
TIMED_LAYERS = ("kernel", "multilog", "sortgroup", "loader", "edgelog", "cache",
                "io", "ssd", "ckpt", "stream")


def targets(program) -> List[Tuple[type, str, str]]:
    """``(class, method, layer)`` triples to wrap for one traced run."""
    out = [(cls, attr, layer) for layer, methods in LAYER_METHODS.items()
           for cls, attr in methods]
    kernel = type(program)
    for attr in ("process_batch", "process"):
        out.append((kernel, attr, "kernel"))
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    workloads: str


# Workloads a metric should move on.
ALL = "all"
ENGINES = "pagerank-cf, sssp-yws"
PAGERANK = "pagerank-cf"
SSSP = "sssp-yws"
STREAM = "stream-wcc-cf"

PER_LAYER: List[LayerMetric] = [
    LayerMetric("graph.generate_s", "s", "lower", "setup_s", ALL),
    LayerMetric("graph.layout_s", "s", "lower", "setup_s", ALL),
    LayerMetric("stream.converge_s", "s", "lower", "setup_s", STREAM),
    LayerMetric("engine.self_s", "s", "lower", "host_s", ALL),
    LayerMetric("engine.workers_effective", "count", "higher", "host_s", ALL),
    LayerMetric("scheduler.saved_us", "us", "higher", "sim_ms", ALL),
    LayerMetric("kernel.host_s", "s", "lower", "host_s", ENGINES),
    LayerMetric("kernel.edges", "count", "lower", "host_s", ENGINES),
    LayerMetric("kernel.updates", "count", "lower", "host_s", ENGINES),
    LayerMetric("multilog.host_s", "s", "lower", "host_s", PAGERANK),
    LayerMetric("multilog.appended", "count", "lower", "pages_written", PAGERANK),
    LayerMetric("multilog.flushed_pages", "count", "lower", "pages_written", PAGERANK),
    LayerMetric("multilog.sim_ms", "ms", "lower", "sim_ms", PAGERANK),
    LayerMetric("sortgroup.host_s", "s", "lower", "host_s", PAGERANK),
    LayerMetric("sortgroup.records_sorted", "count", "lower", "host_s", PAGERANK),
    LayerMetric("loader.host_s", "s", "lower", "host_s", SSSP),
    LayerMetric("loader.pages", "count", "lower", "pages_read", SSSP),
    LayerMetric("loader.sim_ms", "ms", "lower", "sim_ms", SSSP),
    LayerMetric("edgelog.host_s", "s", "lower", "host_s", SSSP),
    LayerMetric("edgelog.logged", "count", "lower", "pages_written", SSSP),
    LayerMetric("edgelog.pages_avoided", "count", "higher", "pages_read", SSSP),
    LayerMetric("edgelog.sim_ms", "ms", "lower", "sim_ms", SSSP),
    LayerMetric("cache.host_s", "s", "lower", "host_s", SSSP),
    LayerMetric("cache.hit_rate", "ratio", "higher", "pages_read", SSSP),
    LayerMetric("cache.evictions", "count", "lower", "pages_read", SSSP),
    LayerMetric("io.host_s", "s", "lower", "host_s", SSSP),
    LayerMetric("io.saved_us", "us", "higher", "sim_ms", SSSP),
    LayerMetric("io.extents", "count", "lower", "sim_ms", SSSP),
    LayerMetric("io.readahead_pages", "count", "lower", "pages_read", SSSP),
    LayerMetric("io.readahead_sim_ms", "ms", "lower", "sim_ms", SSSP),
    LayerMetric("ssd.host_s", "s", "lower", "host_s", ALL),
    LayerMetric("ssd.read_ms", "ms", "lower", "sim_ms", ALL),
    LayerMetric("ssd.write_ms", "ms", "lower", "sim_ms", ALL),
    LayerMetric("device.saved_us", "us", "higher", "sim_ms", ALL),
    LayerMetric("device.busy_max_us", "us", "lower", "sim_ms", ALL),
    LayerMetric("ckpt.host_s", "s", "lower", "host_s", SSSP),
    LayerMetric("ckpt.pages", "count", "lower", "pages_written", SSSP),
    LayerMetric("ckpt.sim_ms", "ms", "lower", "sim_ms", SSSP),
    LayerMetric("stream.host_s", "s", "lower", "batch_host_ms_p50", STREAM),
    LayerMetric("stream.ingest_host_ms", "ms", "lower", "batch_host_ms_p50", STREAM),
    LayerMetric("stream.apply_host_ms", "ms", "lower", "batch_host_ms_p50", STREAM),
    LayerMetric("stream.recompute_host_ms", "ms", "lower", "batch_host_ms_p50", STREAM),
    LayerMetric("stream.materialize_host_ms", "ms", "lower", "batch_host_ms_p50", STREAM),
    LayerMetric("stream.ingest_io_us", "us", "lower", "batch_sim_ms_p50", STREAM),
    LayerMetric("stream.apply_io_us", "us", "lower", "batch_sim_ms_p50", STREAM),
    LayerMetric("stream.seed_io_us", "us", "lower", "batch_sim_ms_p50", STREAM),
    LayerMetric("stream.incremental_share", "ratio", "higher", "batch_sim_ms_p50", STREAM),
    LayerMetric("compute.sim_ms", "ms", "lower", "sim_ms", ALL),
    LayerMetric("trace.host_s", "s", "lower", "host_s", ALL),
    LayerMetric("trace.spans", "count", "lower", "host_s", ALL),
    LayerMetric("trace.overhead_frac", "ratio", "lower", "host_s", ALL),
]

#: Metrics read straight from the gauge of the same name.  A feature
#: that never ran registers no gauge, so its metric is reported absent.
GAUGES = ("scheduler.saved_us", "cache.hit_rate", "cache.evictions", "io.saved_us",
          "io.extents", "io.readahead_pages", "device.saved_us", "device.busy_max_us",
          "edgelog.logged")


def _sum_prefixed(metrics: dict, prefix: str, suffix: str) -> float:
    return sum(v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(suffix))


def _class_io(stats, klasses) -> Tuple[int, int, float]:
    """(pages read, pages written, simulated us) of the given storage classes."""
    r = [c for k, c in stats.reads.items() if klasses(k)]
    w = [c for k, c in stats.writes.items() if klasses(k)]
    return (sum(c.pages for c in r), sum(c.pages for c in w),
            sum(c.time_us for c in r) + sum(c.time_us for c in w))


def layer_metrics(op, spans: List[list]) -> Dict[str, float]:
    """Per-layer values of one traced operation (gauge-derived ones may be absent)."""
    res = op.result
    m = res.metrics or {}
    st = res.stats
    layers, root_ns = self_times(spans)
    out: Dict[str, float] = {f"{layer}.host_s": layers.get(layer, 0) / 1e9
                             for layer in TIMED_LAYERS}
    out["engine.self_s"] = layers.get("engine", 0) / 1e9
    out["engine.workers_effective"] = m.get("scheduler.workers", 1)
    out["kernel.edges"] = sum(r.edges_scanned for r in res.supersteps)
    out["kernel.updates"] = sum(r.updates_processed for r in res.supersteps)
    out["multilog.appended"] = _sum_prefixed(m, "multilog.", ".appended")
    out["multilog.flushed_pages"] = _sum_prefixed(m, "multilog.", ".flushed_pages")
    out["multilog.sim_ms"] = _class_io(st, lambda k: k == "mlog")[2] / 1e3
    out["sortgroup.records_sorted"] = m.get("sortgroup.records_sorted", 0)
    lr, _, lt = _class_io(st, lambda k: k.startswith("csr_"))
    out["loader.pages"] = lr
    out["loader.sim_ms"] = lt / 1e3
    out["edgelog.pages_avoided"] = sum(r.edgelog_pages_avoided for r in res.supersteps)
    out["edgelog.sim_ms"] = _class_io(st, lambda k: k == "edgelog")[2] / 1e3
    _, cw, ct = _class_io(st, lambda k: k == "ckpt")
    out["ckpt.pages"] = cw
    out["ckpt.sim_ms"] = ct / 1e3
    out["ssd.read_ms"] = st.read_time_us / 1e3
    out["ssd.write_ms"] = st.write_time_us / 1e3
    out["compute.sim_ms"] = res.compute_time_us / 1e3
    out.update((name, m[name]) for name in GAUGES if name in m)
    if "io.readahead_time_us" in m:
        out["io.readahead_sim_ms"] = m["io.readahead_time_us"] / 1e3
    if op.phases:
        for metric, span in (("ingest", "StreamSession.ingest"),
                             ("apply", "StreamSession.apply_updates"),
                             ("recompute", "StreamSession.recompute"),
                             ("materialize", "StreamStore.materialize")):
            out[f"stream.{metric}_host_ms"] = inclusive_ns(spans, span) / 1e6
        for key in ("ingest_io_us", "apply_io_us", "seed_io_us"):
            out[f"stream.{key}"] = op.phases[key]
        out["stream.incremental_share"] = float(op.recompute_mode == "incremental")
    out["trace.host_s"] = root_ns / 1e9
    out["trace.spans"] = len(spans)
    return out
