#!/usr/bin/env python3
"""Run alternating parent/change pairs of perfbench and write a BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads pp70b-decode,dse-sweep,verify-toy --seeds 11-20 \\
        --trace 0 --seconds 20 --out BENCH_13.json

Each checkout runs its own `perfbench/run.py` in a fresh process, one
run at a time. Pair i runs seed i on both checkouts, the parent first on
even pairs and the change first on odd ones. The script refuses to run
if `perfbench/` or `BENCHMARK.json` differ between the checkouts, since
the two sides would then not measure the same thing, and if the parent
is not the top of a git checkout, since its commit could not be
recorded.

For each workload and metric the output holds the medians and quartiles
of both sides and the number of pairs the change wins (by the metric's
`better` direction in BENCHMARK.json); every run's `correct`, attempted
and failed ops and metrics; and the sha256 lines each run printed,
with whether parent and change printed the same ones in every pair. For
`--trace 1` runs it also records, per run, the worst share of a traced
pass's wall time in the self time of the root span `bench.pass`, and
the worst share that perfbench checks: the pass's `wall_s` less the
self time of every other span and of the timed leaves, as
`perfbench/run.py` (`_per_layer`) computes it. perfbench marks a run
incorrect once that share exceeds 3% in one pass.

An existing output file is updated: only the keys of this `--trace`
mode are replaced, so trace 0 and trace 1 runs can share one file. The
script prints, per workload and metric, whether a claimed gain would
hold: the change wins at least 9 of 10 pairs (the same share of any
other count) and the medians differ by more than the parent's
interquartile range.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PASS_SPAN = "bench.pass"
WIN_SHARE = 0.9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="checkout of the change")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated workload names")
    ap.add_argument("--seeds", required=True,
                    help="seed range A-B (inclusive), one pair per seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True, type=Path,
                    help="BENCH_<n>.json to write or update")
    return ap.parse_args(argv)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _bench_files(root: Path) -> dict:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for p in sorted((root / "perfbench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            files[str(p.relative_to(root))] = p.read_bytes()
    return files


def _revision(root: Path) -> str:
    """The commit checked out at `root`, which must be the top of a git
    checkout (not a copy inside another one)."""
    done = subprocess.run(["git", "-C", str(root), "rev-parse",
                           "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if (done.returncode or len(lines) != 2
            or Path(lines[0]).resolve() != root.resolve()):
        raise SystemExit(f"error: {root} is not a git checkout; clone the "
                         "revision to compare so its commit is recorded")
    return lines[1]


def _worst_shares(trace_path: Path) -> tuple[float, float]:
    """Largest share of a traced pass's wall time in `bench.pass` self
    time, and largest share not covered by the other spans' and the
    timed leaves' self time (the one perfbench checks)."""
    root, uncovered = [], []
    for p in json.loads(trace_path.read_text())["passes"]:
        named = sum(s["self"] for s in p["spans"] if s["name"] != PASS_SPAN)
        named += sum(leaf["seconds"] for leaf in p["leaves"].values())
        root.append(sum(s["self"] for s in p["spans"]
                        if s["name"] == PASS_SPAN) / p["wall_s"])
        uncovered.append(abs(p["wall_s"] - named) / p["wall_s"])
    return max(root), max(uncovered)


def _run(root: Path, workload: str, seed: int, trace: int,
         seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited "
                         f"{done.returncode}:\n{done.stderr}")
    run = json.loads(lines[-1])
    run["digests"] = sorted(" ".join(line.split()[1:]) for line in lines
                            if line.lstrip().startswith("sha256 "))
    if trace:
        (run["worst_unattributed_share"],
         run["worst_uncovered_share"]) = _worst_shares(
            root / ".bench_build" / "perfbench"
            / f"{workload}-seed{seed}-trace.json")
    return run


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(pairs: list, better: dict) -> dict:
    out = {}
    for metric, direction in better.items():
        par = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        chg = [p["change"]["metrics"][metric]["value"] for p in pairs]
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(par, chg))
        pq1, pmed, pq3 = _quartiles(par)
        cq1, cmed, cq3 = _quartiles(chg)
        out[metric] = {
            "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "change_wins": wins, "pairs": len(pairs),
            "claim_holds": (wins >= WIN_SHARE * len(pairs)
                            and abs(cmed - pmed) > pq3 - pq1),
        }
    out["correct"] = {side: all(p[side]["correct"] for p in pairs)
                      for side in ("parent", "change")}
    # a seed may change a workload's inputs, so compare within a pair
    out["digests"] = pairs[0]["change"]["digests"]
    out["digests_identical"] = all(
        p["parent"]["digests"] == p["change"]["digests"] for p in pairs)
    for share in ("worst_unattributed_share", "worst_uncovered_share"):
        if share in pairs[0]["change"]:
            out[share] = {side: max(p[side][share] for p in pairs)
                          for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if _bench_files(parent) != _bench_files(change):
        print("error: perfbench/ or BENCHMARK.json differ between "
              f"{parent} and {change}", file=sys.stderr)
        return 2
    bench = json.loads((change / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in listed}
    workloads = args.workloads.split(",")
    known = {w["name"] for w in bench["workloads"]}
    if not set(workloads) <= known:
        print(f"error: unknown workload(s) {sorted(set(workloads) - known)}",
              file=sys.stderr)
        return 2

    revision = _revision(parent)
    pairs = []
    for workload in workloads:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                root = parent if side == "parent" else change
                pair[side] = _run(root, workload, seed, args.trace,
                                  args.seconds)
                print(f"{workload} seed {seed} {side}: correct "
                      f"{pair[side]['correct']}", file=sys.stderr)
            pairs.append(pair)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace T",
        "machine": f"{platform.machine()}, Python "
                   f"{platform.python_version()}, one run at a time",
        "parent": revision,
    })
    summary = {w: _summary([p for p in pairs if p["workload"] == w], better)
               for w in workloads}
    doc[f"summary_trace{args.trace}"] = summary
    doc["traced_trace1" if args.trace else "pairs_trace0"] = pairs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for w, s in summary.items():
        print(f"{w}: correct parent {s['correct']['parent']}, change "
              f"{s['correct']['change']}; digests identical "
              f"{s['digests_identical']}")
        for share, what in (("worst_unattributed_share", "root self time"),
                            ("worst_uncovered_share", "share checked")):
            if share in s:
                print(f"  worst {what} of a traced pass: parent "
                      f"{s[share]['parent']:.2%}, change "
                      f"{s[share]['change']:.2%}")
        for metric in better:
            m = s[metric]
            print(f"  {metric:32s} parent {m['parent_median']:.6g} "
                  f"[{m['parent_q1']:.6g}, {m['parent_q3']:.6g}]  change "
                  f"{m['change_median']:.6g}  wins {m['change_wins']}/"
                  f"{m['pairs']}  claim {'holds' if m['claim_holds'] else 'fails'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
