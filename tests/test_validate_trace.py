"""tools/validate_trace.py: the canonical group-order check.

A MultiLogVC superstep announces its interval groups in ``group_plan``
and commits them in canonical order, so ``group_load`` indices run
0..n_groups-1 and each group's ``group_sort``/``group_process``/
``edgelog_decisions`` events name the latest loaded group.  The
validator must accept a real trace and reject every reordering.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import DeltaPageRankProgram
from repro.config import small_test_config
from repro.core import MultiLogVC
from repro.graph.datasets import small_rmat
from repro.obs import TraceRecorder
from repro.options import EngineOptions

TOOL = Path(__file__).resolve().parent.parent / "tools" / "validate_trace.py"


@pytest.fixture(scope="module")
def events():
    tracer = TraceRecorder()
    MultiLogVC(
        small_rmat(n=256, m=2048, seed=3),
        DeltaPageRankProgram(threshold=1e-3),
        small_test_config(),
        options=EngineOptions(min_intervals=4, enable_fusing=False),
        tracer=tracer,
    ).run(4)
    rows = [ev.to_dict() for ev in tracer.events]
    plan = next(r for r in rows if r["kind"] == "group_plan")
    assert plan["n_groups"] >= 3
    assert any(r["kind"] == "edgelog_decisions" for r in rows)
    return rows


def validate(tmp_path, rows):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return subprocess.run(
        [sys.executable, str(TOOL), str(path)], capture_output=True, text=True
    )


def first_index(rows, kind, group):
    return next(
        i for i, r in enumerate(rows) if r["kind"] == kind and r["group"] == group
    )


def test_real_trace_passes(tmp_path, events):
    out = validate(tmp_path, events)
    assert out.returncode == 0, out.stderr


def test_swapped_group_loads_fail(tmp_path, events):
    rows = [dict(r) for r in events]
    a, b = first_index(rows, "group_load", 0), first_index(rows, "group_load", 1)
    rows[a]["group"], rows[b]["group"] = 1, 0
    out = validate(tmp_path, rows)
    assert out.returncode != 0
    assert "out of order" in out.stderr


def test_group_beyond_plan_fails(tmp_path, events):
    rows = [dict(r) for r in events]
    plan = next(i for i, r in enumerate(rows) if r["kind"] == "group_plan")
    rows[plan]["n_groups"] -= 1
    out = validate(tmp_path, rows)
    assert out.returncode != 0
    assert "out of order" in out.stderr


def test_missing_group_fails(tmp_path, events):
    last = max(
        i for i, r in enumerate(events) if r["kind"] == "group_load" and r["step"] == 0
    )
    group = events[last]["group"]
    rows = [r for r in events if not (r["step"] == 0 and r.get("group") == group)]
    out = validate(tmp_path, rows)
    assert out.returncode != 0
    assert "announced" in out.stderr


@pytest.mark.parametrize("kind", ["group_sort", "group_process", "edgelog_decisions"])
def test_event_naming_another_group_fails(tmp_path, events, kind):
    rows = [dict(r) for r in events]
    i = first_index(rows, kind, 1)
    rows[i]["group"] = 0
    out = validate(tmp_path, rows)
    assert out.returncode != 0
    assert "latest group_load" in out.stderr


def test_truncated_superstep_passes(tmp_path, events):
    # A simulated crash ends the trace mid-superstep: not a violation.
    cut = first_index(events, "group_process", 1)
    out = validate(tmp_path, events[:cut])
    assert out.returncode == 0, out.stderr
