"""Correctness checks, all outside the timed region.

* Every operation's values are compared against a reference: the
  in-memory oracle engine for PageRank (its 15-superstep values are not
  a fixed point, so only a superstep-exact reference fits), Dijkstra
  (``sssp_reference``) for SSSP, and ``wcc_reference`` on the host-side
  graph after each stream batch.  References are computed once per graph
  (and batch index) of the seed; a mismatch counts the operation failed.
* Both clocks must reconcile: per-storage-class simulated times plus
  compute time equal the reported simulated time, and traced layer self
  times equal the traced host time.  Drift is a defect of the
  measurement, not of one operation, so it raises :class:`DriftError`.
* Tracing must not perturb the simulation: the traced operation must
  give the same values, superstep records and SSD stats as the untraced
  one (:class:`DriftError` otherwise).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro import CSRGraph
from repro.algorithms.sssp import sssp_reference
from repro.algorithms.wcc import wcc_reference
from repro.verify import compare_results

from spans import self_times
from workloads import Round, Workload, generate, stream_deltas, sub_seed


class DriftError(RuntimeError):
    """A reconciliation or trace-identity check failed."""


def check_sim_reconciles(op) -> None:
    """Per-class storage times plus compute time equal ``total_time_us``."""
    res = op.result
    storage = (sum(c.time_us for c in res.stats.reads.values())
               + sum(c.time_us for c in res.stats.writes.values()))
    if storage + res.compute_time_us != res.total_time_us:
        raise DriftError(
            f"per-class storage {storage!r} us + compute {res.compute_time_us!r} us "
            f"!= total {res.total_time_us!r} us")
    if op.phases:
        # Everything the session's own SSD charged during the batch is
        # accounted for by the ingest/apply/seed phases.
        phased = op.phases["ingest_io_us"] + op.phases["apply_io_us"] + op.phases["seed_io_us"]
        if not math.isclose(phased, op.store_io_us, rel_tol=1e-9, abs_tol=1e-6):
            raise DriftError(
                f"stream phases {phased!r} us != session SSD time {op.store_io_us!r} us")


def check_host_reconciles(spans: List[list]) -> None:
    """Layer self times sum to the traced operation's duration, exactly."""
    layers, root_ns = self_times(spans)
    if sum(layers.values()) != root_ns:
        raise DriftError(f"layer self times {sum(layers.values())} ns != traced {root_ns} ns")


def check_trace_identical(untraced: Round, traced: Round) -> None:
    """Traced and untraced rounds agree on values, records and stats."""
    if len(untraced.ops) != len(traced.ops):
        raise DriftError("traced round ran a different number of operations")
    for k, (a, b) in enumerate(zip(untraced.ops, traced.ops)):
        ra, rb = a.result, b.result
        same = (np.array_equal(ra.values, rb.values, equal_nan=True)
                and ra.supersteps == rb.supersteps
                and ra.stats.to_dict() == rb.stats.to_dict()
                and ra.compute_time_us == rb.compute_time_us
                and a.phases == b.phases)
        if not same:
            raise DriftError(f"tracing changed the simulation of operation {k}")


def _stream_graphs(wl: Workload, seed: int, scale: str, graph_index: int):
    """The host-side graph after each stream batch (base plus mirrored inserts)."""
    shape = wl.shape.scaled(scale)
    gseed = wl.graph_seed(seed, graph_index)
    base = generate(shape, gseed)
    src, dst = base.edge_array()
    for delta in stream_deltas(shape, sub_seed(gseed, 1), wl.batches, base.m):
        src = np.concatenate([src, delta.src])
        dst = np.concatenate([dst, delta.dst])
        yield CSRGraph.from_edges(shape.n, src, dst)


def _oracle(wl: Workload, seed: int, scale: str, graph_index: int) -> list:
    graph = generate(wl.shape.scaled(scale), wl.graph_seed(seed, graph_index))
    return [repro.run(graph, wl.make_program(), engine="oracle",
                      max_supersteps=wl.max_supersteps)]


def _dijkstra(wl: Workload, seed: int, scale: str, graph_index: int) -> list:
    graph = generate(wl.shape.scaled(scale), wl.graph_seed(seed, graph_index))
    return [sssp_reference(graph, wl.make_program().source)]


def _wcc_per_batch(wl: Workload, seed: int, scale: str, graph_index: int) -> list:
    return [wcc_reference(g) for g in _stream_graphs(wl, seed, scale, graph_index)]


#: Workload -> per-operation references of one graph (a RunResult to
#: compare superstep by superstep, or the expected value vector).
REFERENCES = {"pagerank-cf": _oracle, "sssp-yws": _dijkstra, "stream-wcc-cf": _wcc_per_batch}


def _mismatch(ref, op) -> str:
    if isinstance(ref, np.ndarray):
        got = op.result.values
        if not op.result.converged:
            return "did not converge"
        if not np.array_equal(ref, got):
            return f"values differ at {int(np.count_nonzero(ref != got))} vertices"
        return ""
    return "; ".join(compare_results(ref, op.result))


def reference_failures(wl: Workload, seed: int, scale: str,
                       rounds: List[Round]) -> Tuple[int, List[str]]:
    """(operations attempted, failure messages) over all ``rounds``."""
    refs: Dict[int, list] = {}
    attempted = 0
    failures = []
    for rnd in rounds:
        if rnd.graph_index not in refs:
            refs[rnd.graph_index] = REFERENCES[wl.name](wl, seed, scale, rnd.graph_index)
        for k, op in enumerate(rnd.ops):
            attempted += 1
            msg = _mismatch(refs[rnd.graph_index][k], op)
            if msg:
                failures.append(f"graph {rnd.graph_index} op {k}: {msg}")
    return attempted, failures
