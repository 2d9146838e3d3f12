"""The benchmark's workloads: seeded inputs, the pinned configuration, and
one measured round of each workload.

A *round* is one set-up (generate the graph, lay it out on the simulated
SSD; for the stream workload also the session's initial converge)
followed by the measured phase: one engine run, or a fixed series of
stream batches.  Rounds of one seed see identical inputs, so every
simulated number repeats exactly within a run; only host times vary.

Graphs are R-MAT graphs with the cf/yws shapes of
``repro.graph.datasets``, regenerated from the benchmark seed rather
than the datasets' fixed seeds, so a claim can be re-checked on a
held-out seed.  The program sees only the generated inputs.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import CSRGraph, EdgeDelta, EngineOptions, MultiLogVC, SimConfig, StreamSession
from repro.algorithms import DeltaPageRankProgram, SSSPProgram, WCCProgram
from repro.graph.generators import rmat_edges
from repro.obs import MetricsRegistry
from repro.stream.delta import random_delta


@dataclass(frozen=True)
class Shape:
    """R-MAT shape of one input graph at bench scale.

    The values mirror ``_CF_BASE``/``_YWS_BASE`` in
    ``repro.graph.datasets``; they are pinned here so that a change to
    the datasets module cannot silently change what the benchmark
    measures.
    """

    n: int
    m: int
    a: float
    b: float
    c: float
    weighted: bool = False

    def scaled(self, scale: str) -> "Shape":
        """The shape at ``bench`` or ``test`` scale (datasets' 1/16 rule)."""
        if scale == "bench":
            return self
        if scale == "test":
            return Shape(max(64, self.n // 16), max(256, self.m // 16),
                         self.a, self.b, self.c, self.weighted)
        raise ValueError(f"unknown scale {scale!r}")


CF = Shape(n=16_384, m=240_000, a=0.57, b=0.19, c=0.19)
YWS = Shape(n=65_536, m=560_000, a=0.60, b=0.19, c=0.16, weighted=True)


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit generator seed derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def generate(shape: Shape, seed: int) -> CSRGraph:
    """The symmetrised, deduplicated R-MAT graph (datasets' recipe)."""
    _, src, dst = rmat_edges(shape.n, shape.m, shape.a, shape.b, shape.c, seed=seed)
    w = np.random.default_rng(seed ^ 0x5EED).random(src.shape[0]) if shape.weighted else None
    return CSRGraph.from_edges(shape.n, src, dst, weights=w, symmetrize=True, dedup=True)


#: Every storage feature, requested explicitly so that ``REPRO_*``
#: environment variables cannot change what is measured.  Two workers at
#: most: more threads than cores only measure the interpreter lock.
WORKERS = min(2, os.cpu_count() or 1)
FEATURES = dict(
    cache_policy="clock",
    io_plan="coalesce+readahead",
    num_devices=4,
    placement="affinity",
    num_workers=WORKERS,
)


def pinned_config() -> SimConfig:
    """Default config with every environment-sensitive knob overridden.

    The stream store builds its own SSD from the config (not from the
    engine options), so the same features are set on both.
    """
    return (
        SimConfig()
        .with_cache("clock")
        .with_io_plan("coalesce+readahead")
        .with_devices(4, "affinity")
        .with_workers(WORKERS)
    )


@dataclass
class Op:
    """One measured operation: an engine run or one stream batch."""

    host_ns: int
    sim_us: float
    pages_read: int
    pages_written: int
    #: The engine's RunResult (for a stream batch: its recompute's).
    result: object
    #: Stream batches only: per-phase simulated I/O and the path taken.
    phases: Dict[str, float] = field(default_factory=dict)
    recompute_mode: str = ""
    #: Simulated I/O on the stream session's own SSD during the batch.
    store_io_us: float = 0.0


@dataclass
class Round:
    """One set-up plus its measured phase."""

    graph_index: int
    generate_ns: int
    layout_ns: int
    converge_ns: int
    ops: List[Op]

    @property
    def setup_ns(self) -> int:
        return self.generate_ns + self.layout_ns + self.converge_ns

    @property
    def host_ns(self) -> int:
        return sum(op.host_ns for op in self.ops)

    @property
    def sim_us(self) -> float:
        return sum(op.sim_us for op in self.ops)


@dataclass
class Workload:
    """One named workload: its inputs, configuration and round runner."""

    name: str
    why: str
    shape: Shape
    #: Distinct graphs one run cycles through (round ``r`` uses graph
    #: ``r % graphs``); simulated metrics are medians over them.
    graphs: int
    options: EngineOptions
    run_round: Callable[..., Round]
    make_program: Callable[[], object]
    max_supersteps: int = 15
    batches: int = 0

    def graph_seed(self, seed: int, graph_index: int) -> int:
        return sub_seed(seed, WORKLOAD_IDS[self.name], graph_index)

    def describe(self, scale: str) -> dict:
        shape = self.shape.scaled(scale)
        return {
            "name": self.name,
            "why": self.why,
            "shape": asdict(shape),
            "graphs_per_run": self.graphs,
            "max_supersteps": self.max_supersteps,
            "stream_batches_per_round": self.batches,
            "program": type(self.make_program()).__name__,
        }


def _engine_round(wl: Workload, seed: int, scale: str, graph_index: int,
                  recorder=None) -> Round:
    config = pinned_config()
    t0 = perf_counter_ns()
    graph = generate(wl.shape.scaled(scale), wl.graph_seed(seed, graph_index))
    t1 = perf_counter_ns()
    engine = MultiLogVC(graph, wl.make_program(), config, options=wl.options,
                        metrics=MetricsRegistry())
    t2 = perf_counter_ns()
    with recorder.operation("run") if recorder is not None else nullcontext():
        t3 = perf_counter_ns()
        result = engine.run(wl.max_supersteps)
        t4 = perf_counter_ns()
    op = Op(host_ns=t4 - t3, sim_us=result.total_time_us,
            pages_read=result.pages_read, pages_written=result.pages_written,
            result=result)
    return Round(graph_index, t1 - t0, t2 - t1, 0, [op])


def stream_deltas(shape: Shape, seed: int, batches: int, n_edges: int) -> List[EdgeDelta]:
    """Insert-only batches of 0.2% of the edges, mirrored.

    ``random_delta`` draws directed inserts; each is paired with its
    reverse so the graph stays symmetric and WCC labels keep meaning
    weakly connected components (what ``wcc_reference`` computes).
    """
    rng = np.random.default_rng(seed)
    none = np.empty(0, np.int64)
    pairs = max(1, n_edges // 1000)
    out = []
    for k in range(batches):
        d = random_delta(rng, shape.n, none, none, pairs, p_delete=0.0, ts0=2 * k * pairs)
        out.append(EdgeDelta.of(
            np.concatenate([d.op, d.op]),
            np.concatenate([d.src, d.dst]),
            np.concatenate([d.dst, d.src]),
            np.concatenate([d.w, d.w]),
            np.concatenate([d.ts, d.ts + pairs]),
        ))
    return out


def _stream_round(wl: Workload, seed: int, scale: str, graph_index: int,
                  recorder=None) -> Round:
    config = pinned_config()
    shape = wl.shape.scaled(scale)
    gseed = wl.graph_seed(seed, graph_index)
    t0 = perf_counter_ns()
    graph = generate(shape, gseed)
    t1 = perf_counter_ns()
    session = StreamSession(graph, wl.make_program(), config=config, options=wl.options,
                            metrics=MetricsRegistry())
    t2 = perf_counter_ns()
    session.recompute(max_supersteps=wl.max_supersteps)
    t3 = perf_counter_ns()
    deltas = stream_deltas(shape, sub_seed(gseed, 1), wl.batches, graph.m)
    ops = []
    for k, delta in enumerate(deltas):
        before = session.fs.stats.snapshot()
        with recorder.operation("batch") if recorder is not None else nullcontext():
            b0 = perf_counter_ns()
            ing = session.ingest(delta)
            app = session.apply_updates()
            rec = session.recompute(max_supersteps=wl.max_supersteps)
            b1 = perf_counter_ns()
        store = session.fs.stats.snapshot() - before
        res = rec.result
        phases = {"ingest_io_us": ing["io_us"], "apply_io_us": app["io_us"],
                  "seed_io_us": rec.seed_io_us, "recompute_sim_us": res.total_time_us}
        ops.append(Op(
            host_ns=b1 - b0,
            sim_us=phases["ingest_io_us"] + phases["apply_io_us"] + phases["seed_io_us"]
            + phases["recompute_sim_us"],
            pages_read=store.pages_read + res.pages_read,
            pages_written=store.pages_written + res.pages_written,
            result=res, phases=phases, recompute_mode=rec.mode,
            store_io_us=store.total_time_us,
        ))
    return Round(graph_index, t1 - t0, t2 - t1, t3 - t2, ops)


#: Stable per-workload index for seed derivation (never reorder).
WORKLOAD_IDS = {"pagerank-cf": 1, "sssp-yws": 2, "stream-wcc-cf": 3}

WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="pagerank-cf",
            why=("DeltaPageRank(1e-3), 15 supersteps; R-MAT cf n=16384 m=240000 a=.57 b=.19 c=.19."
                 " All vertices active: exercises multi-log, sort, kernels; edge log, planner, "
                 "checkpoints idle"),
            shape=CF,
            graphs=1,
            options=EngineOptions(**FEATURES),
            run_round=_engine_round,
            make_program=lambda: DeltaPageRankProgram(threshold=1e-3),
            max_supersteps=15,
        ),
        Workload(
            name="sssp-yws",
            why=("SSSP from 0 to convergence, checkpoint every 4; R-MAT yws n=65536 m=560000 a=.6 "
                 "b=.19 c=.16 weighted, 8 graphs. Data exceeds cache: loader, cache, planner, edge"
                 " log, checkpoints"),
            shape=YWS,
            graphs=8,
            options=EngineOptions(checkpoint_every=4, checkpoint_mode="full", **FEATURES),
            run_round=_engine_round,
            make_program=lambda: SSSPProgram(source=0),
            max_supersteps=1000,
        ),
        Workload(
            name="stream-wcc-cf",
            why=("WCC StreamSession on cf shape; per set-up 6 insert-only batches of 0.2% of edges"
                 " (mirrored random_delta). Exercises ingest/apply write path, warm-started "
                 "recompute"),
            shape=CF,
            graphs=1,
            options=EngineOptions(**FEATURES),
            run_round=_stream_round,
            make_program=WCCProgram,
            max_supersteps=50,
            batches=6,
        ),
    )
}


def run_round(wl: Workload, seed: int, scale: str, round_index: int,
              recorder: Optional[object] = None) -> Round:
    """Run round ``round_index`` of ``wl`` (optionally traced)."""
    return wl.run_round(wl, seed, scale, round_index % wl.graphs, recorder)
