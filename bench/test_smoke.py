"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced.  Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json prints with its unit, in
the metric lines and in the final JSON line, and that the only failed
units are the known spapt defects listed in workloads.KNOWN_DEFECTS.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[list[str], dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail ") :])
    return lines, detail, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_only_known_failures(workload, trace):
    lines, detail, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{workload} {metric['name']} = ") and line.endswith(f" {metric['unit']}") for line in lines)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert detail["unexpected_failures"] == []  # every failure is in workloads.KNOWN_DEFECTS
    assert result["failed"] == sum(f["count"] for f in detail["failures"].values())
    if workload != "cli_reports":
        assert result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "state_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
