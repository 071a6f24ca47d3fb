"""Smoke test of the benchmark on tiny cases.

Every metric BENCHMARK.json names is emitted with its unit, untraced and
traced; the gate passes; tracing leaves no rebound name behind; the history
gate compares runs of the same solver sources only; and the command refuses
to run without the solver sources beside it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracing import TARGETS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = (
    harness.Workload("tiny-cubic-ts-r1", "cubic-plate", (0, 1), "ts", 1, "nothing"),
    harness.Workload("tiny-cubic-tsdd-r2", "cubic-plate", (0, 1), "tsdd", 2, "schedule"),
)


def _units(listed):
    return {m["name"]: m["unit"] for m in listed}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_emitted_with_its_unit(workload, tmp_path):
    runs = {
        0: harness.measure(workload, 3, 0.1, tmp_path),
        1: harness.trace(workload, 3, tmp_path, spans_path=tmp_path / "spans.json"),
    }
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = runs[trace]["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], runs[trace]["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == _units(listed)
        assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert all(getattr(getattr(t.owner, t.attr), "__wrapped__", None) is None for t in TARGETS)

    layer = {n: m["value"] for n, m in runs[1]["result"]["metrics"].items()}
    assert layer["twoscale.iterations"] >= 1 and layer["sparsela.factorize.calls"] >= 1
    if workload.ranks == 1:
        assert layer["runtime.messages"] == 0 and layer["runtime.rank1.busy_s"] == 0
    else:
        assert layer["runtime.messages"] > 0 and layer["ddsolver.dd_solve.calls"] >= 1
        assert layer["runtime.rank1.busy_s"] > 0
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micro-ts-r1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_history_gate_compares_runs_of_the_same_sources_only(tmp_path):
    workload = TINY[0]
    book = harness.HistoryBook(tmp_path)
    other_sources = "0" * 16 + "/" + workload.history_key(3).split("/", 1)[1]
    assert other_sources != workload.history_key(3)
    book.record(other_sources, (1, "not-this-history"))
    run = harness.measure(workload, 3, 0.1, tmp_path)
    assert run["result"]["correct"] and run["result"]["failed"] == 0, run["problems"]

    book = harness.HistoryBook(tmp_path)
    book.record(workload.history_key(3), (1, "not-this-history"))
    run = harness.measure(workload, 3, 0.1, tmp_path)
    assert not run["result"]["correct"] and run["result"]["failed"] == run["result"]["attempted"]
