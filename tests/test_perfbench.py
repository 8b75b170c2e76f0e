"""Smoke test of the host-time benchmark: each workload runs one
untraced and one traced pass against this checkout and reports every
per-layer metric BENCHMARK.json lists. A simulator name that
perfbench wraps or reads, once renamed or deleted, fails here rather
than in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_perfbench_traced_pass_reports_every_per_layer_metric(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    # "correct" is not asserted: its 3% self-time check is noisy on a
    # loaded machine (see perfbench/run.py, SELF_TIME_TOLERANCE)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
