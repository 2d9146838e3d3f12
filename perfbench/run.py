"""End-to-end benchmark of the MultiLogVC storage stack.

Runs one workload through the public API with every feature requested
(CLOCK cache, coalescing planner with read-ahead, four-device array, two
workers), checks every result against a reference, and prints the
metrics named in ``BENCHMARK.json``; the last line of standard output is
one JSON object::

    python3 perfbench/run.py --workload pagerank-cf --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer split; spans go to ``perfbench/out/`` when the run ends.
Run from the root of a source checkout: the program is imported from
``src/`` (there is nothing to build).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import sys
from dataclasses import asdict
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run at least, so ``setup_s`` is always a median.
MIN_ROUNDS = 3

#: Time of :func:`calibrate` on the reference machine (2-vCPU x86_64 VM,
#: CPython 3.11, NumPy 2.4).  Host times are reported at this speed.
CALIBRATION_REF_NS = 450_000_000


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def calibrate() -> int:
    """Time a fixed memory-bound kernel (random gather, sort, bincount), in ns.

    On a shared machine host speed shifts by a quarter or more for
    minutes at a time, which moves every host time with it.  Timing this
    kernel between rounds measures the shift, so host times can be
    reported at the reference speed.  Like the program, the kernel works
    on arrays far larger than the core's caches; a cache-resident kernel
    tracked the program's slowdowns only half as well.  It is the
    benchmark's own code: no change to the program moves it.
    """
    import numpy as np

    rng = np.random.default_rng(7)
    t0 = perf_counter_ns()
    values = rng.random(4_000_000)
    idx = rng.integers(0, values.size, 2_000_000)
    gathered = values[idx]
    order = np.argsort(idx, kind="stable")
    np.bincount(idx[order] & 0xFFFF, weights=gathered[order])
    return perf_counter_ns() - t0


def _median(xs) -> float:
    return float(statistics.median(xs))


def _over_graphs(rounds, values):
    """Mean over the run's graphs of each graph's median.

    ``values(round)`` gives one or more samples per round.  Rounds cycle
    through the graphs, so a run that stops mid-cycle has more rounds of
    some graphs than of others; weighting every graph equally keeps that
    from moving the result.  With one graph this is the plain median.
    """
    per_graph = {}
    for rnd in rounds:
        per_graph.setdefault(rnd.graph_index, []).extend(values(rnd))
    return statistics.fmean(statistics.median(v) for v in per_graph.values())


def end_to_end(rounds, peak_rss_mb, speed):
    """The end-to-end metrics of untraced ``rounds``: name -> (value, unit).

    Host times are multiplied by the run's ``speed`` factor, which puts
    them at the reference speed; the unscaled samples go to the report.
    """
    return {
        "setup_s": (_over_graphs(rounds, lambda r: [r.setup_ns / 1e9 * speed]), "s"),
        "host_s": (_over_graphs(rounds, lambda r: [r.host_ns / 1e9 * speed]), "s"),
        "sim_ms": (_over_graphs(rounds, lambda r: [r.sim_us / 1e3]), "ms"),
        "pages_read": (_over_graphs(rounds, lambda r: [sum(o.pages_read for o in r.ops)]),
                       "count"),
        "pages_written": (_over_graphs(rounds, lambda r: [sum(o.pages_written for o in r.ops)]),
                          "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "batch_host_ms_p50": (
            _over_graphs(rounds, lambda r: [o.host_ns / 1e6 * speed for o in r.ops]), "ms"),
        "batch_sim_ms_p50": (_over_graphs(rounds, lambda r: [o.sim_us / 1e3 for o in r.ops]),
                             "ms"),
    }


def per_layer(rounds, traced):
    """Per-layer metrics of the traced rounds: name -> (value, unit), plus absent names.

    Values are means per operation (an engine run or a stream batch), so
    the layer self times add up to ``trace.host_s``.
    """
    from checks import check_host_reconciles
    from layers import PER_LAYER, layer_metrics

    samples = {}
    for rnd, rec in traced:
        for k, op in enumerate(rnd.ops):
            spans = rec.operation_spans(k)
            check_host_reconciles(spans)
            for name, v in layer_metrics(op, spans).items():
                samples.setdefault(name, []).append(v)
    # Each traced round repeats the untraced round before it, so the two
    # totals cover the same graphs and batches.
    untraced_ns = sum(rnd.host_ns for rnd in rounds)
    samples["trace.overhead_frac"] = [sum(samples["trace.host_s"]) * 1e9 / untraced_ns - 1.0]
    samples["graph.generate_s"] = [_median([r.generate_ns / 1e9 for r in rounds])]
    samples["graph.layout_s"] = [_median([r.layout_ns / 1e9 for r in rounds])]
    if any(r.converge_ns for r in rounds):
        samples["stream.converge_s"] = [_median([r.converge_ns / 1e9 for r in rounds])]
    out, absent = {}, []
    for m in PER_LAYER:
        vals = samples.get(m.name)
        if vals is None:
            absent.append(m.name)
            out[m.name] = (0.0, m.unit)
        else:
            out[m.name] = (statistics.fmean(vals), m.unit)
    return out, absent


def effective_config(wl, rounds):
    """Requested options, ``REPRO_*`` env vars and what ran, seen from outside."""
    from workloads import WORKERS

    metrics = rounds[0].ops[0].result.metrics or {}
    requested = {k: v for k, v in asdict(wl.options).items() if k != "intervals"}
    workers = metrics.get("scheduler.workers", 1)
    devices = metrics.get("device.devices", 1)
    downgrades = []
    if workers != WORKERS:
        why = "" if "scheduler.workers" in metrics else " (no scheduler.* gauges)"
        downgrades.append(f"num_workers: requested {WORKERS}, ran {workers}{why}")
    if devices != requested["num_devices"]:
        downgrades.append(f"num_devices: requested {requested['num_devices']}, ran {devices}")
    if "cache.capacity_pages" not in metrics:
        downgrades.append("cache_policy: requested clock, no cache.* gauges")
    if "io.plans" not in metrics:
        downgrades.append("io_plan: requested coalesce+readahead, no io.* gauges")
    return {
        "requested": requested,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "gauge_families": sorted({k.split(".")[0] for k in metrics}),
        "workers_effective": workers,
        "devices": devices,
        "cache_capacity_pages": metrics.get("cache.capacity_pages", 0),
        "downgrades": downgrades,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure rounds until this much wall time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "test"), default="bench",
                    help="input size; 'test' is 1/16 of bench, for the self-tests")
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for the run report and spans")
    args = ap.parse_args(argv)

    _import_program()
    from checks import (check_sim_reconciles, check_trace_identical,
                        reference_failures)
    from layers import targets
    from spans import Patch, SpanRecorder
    from workloads import WORKLOADS, run_round

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    # An untraced run covers every graph, so the end-to-end figures weight
    # them equally.  A traced round pair takes about twice as long, so a
    # traced run stops at the time limit once it has MIN_ROUNDS.
    min_rounds = MIN_ROUNDS if args.trace else max(MIN_ROUNDS, wl.graphs)
    rounds, traced = [], []
    calibration = []
    start = perf_counter()
    i = 0
    while i < min_rounds or perf_counter() - start < args.seconds:
        rounds.append(run_round(wl, args.seed, args.scale, i))
        if i == 0:
            # Peak memory of one round, read before the first calibration
            # so that the kernel's arrays cannot set it.  Later rounds
            # only add the results kept for the checks, which would tie the
            # figure to host speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            rec = SpanRecorder()
            with Patch(rec, targets(wl.make_program())):
                traced.append((run_round(wl, args.seed, args.scale, i, recorder=rec), rec))
            check_trace_identical(rounds[-1], traced[-1][0])
        calibration.append(calibrate())
        i += 1
    # One factor per run: a single calibration is as noisy as a single
    # round, but slowdowns last longer than a run.
    speed = CALIBRATION_REF_NS / _median(calibration)

    all_rounds = rounds + [rnd for rnd, _ in traced]
    for rnd in all_rounds:
        for op in rnd.ops:
            check_sim_reconciles(op)
    attempted, failures = reference_failures(wl, args.seed, args.scale, all_rounds)

    if args.trace:
        metrics, absent = per_layer(rounds, traced)
    else:
        metrics, absent = end_to_end(rounds, peak_rss_mb, speed), []
    config = effective_config(wl, rounds)
    n_ops = sum(len(r.ops) for r in rounds)

    print(f"perfbench {wl.name} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"rounds={len(rounds)} operations={n_ops}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':28s} {len(failures) / attempted:>16.6g} "
          f"({len(failures)}/{attempted} operations)")
    for msg in failures:
        print(f"  FAILED {msg}")
    if absent:
        print(f"  absent (reported as 0): {', '.join(absent)}")
    print(f"  host speed factor {speed:.4g} from {len(calibration)} calibrations"
          + ("" if args.trace else "; end-to-end host times are at reference speed"))
    print(f"  config: workers {config['workers_effective']}, devices {config['devices']}, "
          f"cache pages {config['cache_capacity_pages']}, "
          f"gauges {','.join(config['gauge_families'])}, env {config['env'] or 'none'}")
    if config["downgrades"]:
        print(f"  downgrades: {'; '.join(config['downgrades'])}")

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    report = {
        "workload": wl.describe(args.scale),
        "seed": args.seed,
        "speed": speed,
        "rounds": len(rounds),
        "operations": n_ops,
        "config": config,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": absent,
        "failures": failures,
        "samples": {
            "setup_s": [r.setup_ns / 1e9 for r in rounds],
            "host_s": [r.host_ns / 1e9 for r in rounds],
            "batch_host_ms": [op.host_ns / 1e6 for r in rounds for op in r.ops],
            "calibration_s": [c / 1e9 for c in calibration],
        },
    }
    if args.trace:
        from layers import PER_LAYER

        report["maps_to"] = {m.name: {"moves": m.moves, "workloads": m.workloads}
                             for m in PER_LAYER}
        with gzip.open(stem + ".spans.jsonl.gz", "wt") as f:
            for rnd_index, (_, rec) in enumerate(traced):
                for span in rec.to_records():
                    f.write(json.dumps({"round": rnd_index, **span}) + "\n")
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=2, default=str)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
