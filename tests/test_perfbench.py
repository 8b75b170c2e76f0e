"""Smoke test of the host-time benchmark: each workload runs one
untraced and one traced pass against this checkout and reports every
per-layer metric BENCHMARK.json lists. A simulator name that
perfbench wraps or reads, once renamed or deleted, fails here rather
than in the benchmark."""

import importlib.util
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_records_the_share_perfbench_checks(tmp_path):
    # pass 1 spends 0.01 s in the root span's own code and 0.07 s
    # outside the root span; pass 2 0.02 s in the root span only
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"passes": [
        {"wall_s": 1.0,
         "spans": [{"name": "bench.pass", "self": 0.01},
                   {"name": "compiler.block_summaries", "self": 0.6},
                   {"name": "timesim.simulate_system", "self": 0.3}],
         "leaves": {"timesim.channel_busy_ns": {"calls": 9,
                                                "seconds": 0.02}},
         "counts": {}},
        {"wall_s": 0.5,
         "spans": [{"name": "bench.pass", "self": 0.02},
                   {"name": "compiler.block_summaries", "self": 0.48}],
         "leaves": {}, "counts": {}},
    ]}))
    root, uncovered = _bench_pairs()._worst_shares(trace)
    assert root == pytest.approx(0.04)
    assert uncovered == pytest.approx(0.08)


def test_bench_pairs_records_only_a_git_revision(tmp_path):
    """bench_pairs.py records the parent's commit, so a parent that is
    not the top of a git checkout ends the run with one error line."""
    bench_pairs = _bench_pairs()
    plain = tmp_path / "copy"
    plain.mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs._revision(plain)
    assert str(exc.value).startswith("error: ")
    assert "\n" not in str(exc.value)

    repo = tmp_path / "clone"
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c",
           "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "c"],
                   check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs._revision(repo) == head
    # a directory inside the checkout is not a checkout of its own
    (repo / "sub").mkdir()
    with pytest.raises(SystemExit):
        bench_pairs._revision(repo / "sub")
