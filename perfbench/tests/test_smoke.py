"""End-to-end smoke runs of every workload, and the failure paths.

Slow (a few minutes in all): each case starts the real SUT. Run with
``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from loadgen import PassResult
from gen import Inputs
from run import check

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Shortest runs that still place every workload's episodes in the
#: timed phase (fleet faults need a LEAD-tick run-up per tenant).
SMOKE_SECONDS = {"rubis-stream": 3, "mesh-fanout": 4, "fleet-tenants": 14}


def _run(cwd: Path, workload: str, trace: int, seconds: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(SMOKE_SECONDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMOKE_SECONDS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, SMOKE_SECONDS[workload])
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "rubis-stream", 0, 3)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _inputs() -> Inputs:
    return Inputs(workload="rubis-stream", seconds=1, mode="pipeline", rate=1.0,
                  warmup=[], timed=[], tail=[], episodes=[], sut_args=[])


def _clean_result() -> PassResult:
    return PassResult(
        final_stats={"pipeline": {"ticks": 100}}, pushed_ticks=100,
        stopped=(100, 0, 0), durable_count=0, incidents_complete=True,
        exit_code=0, gen_lag_s=[0.001],
    )


def test_check_passes_a_clean_run():
    assert check(_inputs(), _clean_result()) == []


@pytest.mark.parametrize("breakage, words", [
    (lambda r: r.final_stats["pipeline"].update(ticks=99), "consumed ticks"),
    (lambda r: setattr(r, "durable_count", 1), "incident counts disagree"),
    (lambda r: setattr(r, "readyz_failures", 1), "/readyz"),
    (lambda r: r.pipeline_errors.append("boom"), "pipeline error"),
    (lambda r: setattr(r, "gen_lag_s", [0.5]), "invalid run"),
    (lambda r: setattr(r, "incidents_complete", False), "episodes"),
])
def test_check_reports_each_failure(breakage, words):
    result = _clean_result()
    breakage(result)
    problems = check(_inputs(), result)
    assert any(words in p for p in problems), problems
