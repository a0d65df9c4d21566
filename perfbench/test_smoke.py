"""Smoke test of the benchmark: each workload once at its tiny size, untraced
and traced, checking that every metric is emitted with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics named per workload in the printed table, beside the gated metrics.
NAMED = {
    "catalogue": ["reports_per_s", "report_p50_ms", "report_tail_ms", "cli_eval_p50_ms"],
    "search": ["search_p50_s", "search_tail_s", "search_eff_mean", "search_20_10_4_s", "cli_search_p50_ms"],
    "oracle": ["contrasts_per_s", "enum_designs_per_s", "oracle_p50_ms", "oracle_tail_ms", "cli_verify_p50_ms"],
}
COMMON = ["setup_s", "peak_rss_mb", "fail_ratio"]


def run(workload: str, trace: int, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_emits_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    metrics = result_of(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    for name in COMMON + NAMED[workload]:
        assert re.search(rf"^  {re.escape(name)} ", proc.stdout, re.M), name
    assert re.search(r"p[\d.]+, \d+ samples, \d+ beyond", proc.stdout)
    assert '"nproc"' in proc.stdout and '"OPENBLAS_NUM_THREADS"' in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_emits_every_per_layer_metric(workload):
    metrics = result_of(run(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.rounds"]["value"] >= 1
    assert metrics["criteria.intrablock.calls"]["value"] > 0
    spans = json.loads((HERE / "out" / f"{workload}-seed3-trace1-spans.json").read_text())
    assert spans["names"] and len(spans["start_s"]) == len(spans["parent"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("catalogue", 0, tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
