"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload dse-sweep --runs 10

Runs perfbench/run.py once per seed (1..runs, one after another) and
prints, per metric, the median and the distance between the first and
third quartiles as a share of the median, beside a third of the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict = {}
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
            check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect\n{done.stdout}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':32s} {'median':>12s} {'iqr/median':>10s} "
          f"{'bound/3':>8s}")
    worst_ok = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        ok = spread < bounds[name] / 3
        worst_ok &= ok
        print(f"{name:32s} {med:12.6g} {spread:10.4f} "
              f"{bounds[name] / 3:8.4f}{'' if ok else '  WIDE'}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
