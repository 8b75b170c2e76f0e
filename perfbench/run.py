"""Host-time benchmark of the cxlpim simulator.

    python3 perfbench/run.py --workload pp70b-decode --seed 1 \
        --seconds 20 --trace 0

Runs passes of one workload (see workloads.py) until --seconds of
measuring have elapsed, checks every pass's outputs, prints each metric
by name with its unit and the sha256 of the outputs, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json; --trace 1 alternates
untraced and traced passes and reports its per-layer metrics, writing
the spans to .bench_build/perfbench/.  The program is imported from
src/ of the checkout this file sits in; without it the run exits 2.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 11
SELF_TIME_TOLERANCE = 0.03
PASS_SPAN = "bench.pass"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="print the set-up time of a fresh process and exit")
    return ap.parse_args(argv)


def _import_program():
    """Import the checkout's cxlpim; returns (workloads, spans)."""
    sys.path.insert(0, str(SRC))
    import cxlpim
    import spans
    import workloads
    if Path(cxlpim.__file__).resolve().parent != SRC / "cxlpim":
        raise SystemExit(f"error: imported cxlpim from {cxlpim.__file__}, "
                         f"not from {SRC}")
    return workloads, spans


def _setup_probe(workload: str) -> int:
    """Import, load the config, plan and lay out the first configuration."""
    t = perf_counter()
    _import_program()[0].WORKLOADS[workload].setup()
    print(perf_counter() - t)
    return 0


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _timed_pass(wl, tracer=None):
    t = perf_counter()
    if tracer is None:
        res = wl.run_pass()
    else:
        res = tracer.span(PASS_SPAN)(wl.run_pass)(tracer)
    res.wall_s = perf_counter() - t
    return res


def _measure(wl, seconds: float, spans=None):
    """Untraced passes (and, given the `spans` module, a traced pass
    after each) until `seconds` have elapsed; the pass in progress
    completes."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(_timed_pass(wl))
        if spans:
            tr = spans.Tracer()
            with spans.installed(tr):
                traced.append((_timed_pass(wl, tr), tr))
        if perf_counter() - start >= seconds:
            return plain, traced


def _end_to_end(plain, setup_s: float) -> dict:
    attempted = sum(r.attempted for r in plain)
    failed = sum(r.failed for r in plain)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in plain),
        "positions_per_s": statistics.median(
            r.positions / (r.wall_s - r.setup_s) for r in plain),
        "peak_rss_MB":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - failed / attempted,
    }


def _per_layer(plain, traced, workloads, spans, problems: list) -> dict:
    rows = []
    for res, tr in traced:
        # the root span's self time is what no named layer covers
        self_s = tr.self_times()
        unattributed = self_s.pop(PASS_SPAN)
        accounted = sum(self_s.values())
        if abs(accounted - res.wall_s) > SELF_TIME_TOLERANCE * res.wall_s:
            problems.append(f"named layers cover {accounted:.4f} s of a "
                            f"{res.wall_s:.4f} s traced pass")
        rows.append({**dict.fromkeys(workloads.SIM_METRICS, 0.0),
                     **spans.layer_metrics(tr), **res.sim,
                     "trace.unattributed_s": unattributed})
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_s"] = (
        statistics.median(res.wall_s for res, _ in traced)
        - statistics.median(r.wall_s for r in plain))
    return out


def _write_trace(workload: str, seed: int, traced) -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "passes": [{"wall_s": res.wall_s, **tr.to_json()}
                   for res, tr in traced]}) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cxlpim" / "__init__.py").is_file():
        print(f"error: no cxlpim sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args.workload)

    workloads, spans = _import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
    plain, traced = _measure(wl, args.seconds, spans if args.trace else None)
    # probed after the passes, so that the probes find the CPU as busy
    # as the passes did, not idle at process start
    setup_s = 0.0 if args.trace else _setup_seconds(args.workload)
    passes = plain + [res for res, _ in traced]

    problems = [p for r in passes for p in r.problems]
    if any(r.digests != passes[0].digests for r in passes):
        problems.append("outputs differ between passes of the same inputs")
    if args.trace:
        metrics = _per_layer(plain, traced, workloads, spans, problems)
        trace_path = _write_trace(args.workload, args.seed, traced)
        listed = bench["per_layer"]
    else:
        metrics = _end_to_end(plain, setup_s)
        listed = bench["end_to_end"]
    mismatch = set(metrics) ^ {m["name"] for m in listed}
    if mismatch:
        raise SystemExit("error: metrics do not match BENCHMARK.json: "
                         f"{sorted(mismatch)}")

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for m in listed:
        print(f"  {m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} ops)")
    if not args.trace:
        for name in ("err_throughput_ratio", "err_device_W"):
            if name in passes[0].sim:
                print(f"  {name:32s} {passes[0].sim[name]:.6g} fraction")
    for line in sorted({e for r in passes for e in r.errors}):
        print(f"  failed op: {line}")
    for line in problems:
        print(f"  check failed: {line}")
    for name, digest in passes[0].digests.items():
        print(f"  sha256 {digest}  {name}")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
