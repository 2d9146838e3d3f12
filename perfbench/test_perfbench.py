"""Self-tests of the benchmark: a tiny-scale pass of every workload, plus
the checks that must reject drift.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from checks import (  # noqa: E402
    DriftError, check_host_reconciles, check_sim_reconciles, check_trace_identical)
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, run_round  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_pass_emits_every_metric(workload, trace, tmp_path):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "test", "--out", str(tmp_path)])
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    report = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert report["config"]["requested"]["num_devices"] == 4
    assert report["config"]["devices"] == 4
    if trace:
        assert (tmp_path / f"{workload}-seed3-trace1.spans.jsonl.gz").stat().st_size > 0


def test_benchmark_json_matches_layer_table():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _run(["--workload", "pagerank-cf", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.fixture(scope="module")
def stream_round():
    return run_round(WORKLOADS["stream-wcc-cf"], 5, "test", 0)


def test_sim_drift_is_rejected(stream_round):
    op = stream_round.ops[0]
    check_sim_reconciles(op)
    op.store_io_us += 1.0
    with pytest.raises(DriftError):
        check_sim_reconciles(op)
    op.store_io_us -= 1.0


def test_escaped_span_is_rejected():
    root = [1, "run", "engine", 0, 100, None, 0]
    child = [2, "MultiLogUnit.ingest", "multilog", 10, 40, 1, 0]
    check_host_reconciles([child, root])
    orphan = [3, "PageCache.access", "cache", 50, 60, 99, 0]
    with pytest.raises(DriftError):
        check_host_reconciles([child, orphan, root])


def test_trace_perturbation_is_rejected(stream_round):
    again = run_round(WORKLOADS["stream-wcc-cf"], 5, "test", 0)
    check_trace_identical(stream_round, again)
    again.ops[-1].result.values = np.array(again.ops[-1].result.values) + 1.0
    with pytest.raises(DriftError):
        check_trace_identical(stream_round, again)
