#!/usr/bin/env python3
"""Print the sha256 of every output file of a fixed set of simulator runs.

The runs are `cxlpim simulate --out` on:

  * llama2-70B pipelined (prefill 512, decode 3584, seq-gap 512),
  * llama2-70B tensor parallel (seq-gap 128),
  * llama2-70B hybrid tp4 x pp8 (seq-gap 512),
  * llama2-70B scaled over 16 devices (context 2048, seq-gap 512),
  * llama2-7B pipelined over 8 devices (seq-gap 128),

and through the config loader on llama2-7B pipelined over 8 devices
(seq-gap 512): once with an `--arch` file that nests sections and
gives ints to float fields, once with `--set` of an int, a float and a
bool field; `cxlpim report --out` on the saved pp70b report;
`cxlpim compile --out` on llama2-70B tensor parallel (position 2048),
on toy over 2 devices, on llama2-70B scaled over 80 devices (two
pipeline replicas, context 2048) and on llama2-70B hybrid tp4 x pp8
(position 2048), and `cxlpim sweep` over a small spec list whose
llama2-70B scaled rows over 16 and 32 devices (context 2048, one
position each) share one lowering of their block class.
Each runs in this process through `cli.main`, against the `src/` next
to this script. `compile --out` writes only summaries, so the script
also hashes the list-mode instruction streams of `compiler.compile_token`
(every device's opcodes, operands and flags, annotations and RISC-V
routine table) on toy over 1 and 2 devices at positions 0 and 63 and on
mid at positions 0, 511 and 2047. Two checkouts can be compared line
by line:

    python3 scripts/output_digests.py OUT_A > a.txt   # in checkout A
    python3 scripts/output_digests.py OUT_B > b.txt   # in checkout B
    diff a.txt b.txt

Each line is `sha256  path`, with the path relative to the output
directory, or `sha256  stream/MODEL-DEVICES@POSITION` for a list-mode
stream, which writes no file. What the runs print, and the seconds
each took, go to stderr.
"""

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cxlpim import cli, compiler, mapper  # noqa: E402
from cxlpim.config import CONFIGS_DIR, load_config  # noqa: E402

SIMULATE = {
    "pp70b": ["--model", "llama2_70b", "--strategy", "pp",
              "--prefill", "512", "--decode", "3584", "--seq-gap", "512"],
    "tp70b": ["--model", "llama2_70b", "--strategy", "tp",
              "--seq-gap", "128"],
    "hybrid70b": ["--model", "llama2_70b", "--strategy", "hybrid",
                  "--tp", "4", "--pp", "8", "--seq-gap", "512"],
    "scaled70b-16": ["--model", "llama2_70b", "--strategy", "scaled",
                     "--devices", "16", "--context", "2048",
                     "--seq-gap", "512"],
    "pp7b-8": ["--model", "llama2_7b", "--strategy", "pp",
               "--devices", "8", "--seq-gap", "128"],
}

# an arch file with every section, ints in float fields, and --set
# overrides of an int, a float and a bool field
ARCH_FILE = {"arch": {
    "n_devices": 16, "pnm_clock_Hz": 2000000000,
    "timing": {"tCL_ns": 26, "tRP_ns": 16, "refresh_enabled": True},
    "cxl": {"base_latency_ns": 500, "link_bandwidth_Bps": 32000000000},
    "energy": {"p_host_W": 120, "e_mac_col_pJ": 150},
    "cost": {"amortization_years": 4, "production_volume": 1000000}}}

LOADER = {
    "arch-file7b": ["--model", "llama2_7b", "--strategy", "pp",
                    "--devices", "8", "--seq-gap", "512"],
    "set7b": ["--model", "llama2_7b", "--strategy", "pp", "--devices", "8",
              "--seq-gap", "512", "--set", "arch.n_devices=16",
              "--set", "arch.timing.tCL_ns=26.5",
              "--set", "arch.timing.refresh_enabled=true"],
}

COMPILE = {
    "compile-tp70b": ["--model", "llama2_70b", "--strategy", "tp",
                      "--pos", "2048"],
    "compile-toy-2": ["--model", "toy", "--devices", "2"],
    "compile-scaled70b-80": ["--model", "llama2_70b", "--strategy", "scaled",
                             "--devices", "80", "--context", "2048"],
    "compile-hybrid70b": ["--model", "llama2_70b", "--strategy", "hybrid",
                          "--tp", "4", "--pp", "8", "--pos", "2048"],
}

SWEEP = [
    {"model": "toy", "prefill": 16, "decode": 48, "seq_gap": 1},
    {"model": "toy", "devices": 2, "prefill": 8, "decode": 56,
     "seq_gap": 5},
    {"model": "llama2_13b", "strategy": "pp", "prefill": 0,
     "decode": 4096, "seq_gap": 4096},
    {"model": "llama2_70b", "strategy": "hybrid", "tp": 8, "pp": 4,
     "prefill": 0, "decode": 4096, "seq_gap": 4096},
    {"model": "llama2_70b", "strategy": "scaled", "devices": 16,
     "context": 2048, "prefill": 0, "decode": 2048, "seq_gap": 2048},
    {"model": "llama2_70b", "strategy": "scaled", "devices": 32,
     "context": 2048, "prefill": 0, "decode": 2048, "seq_gap": 2048},
]

# compile_token's list-mode streams: model, pipeline devices, positions
STREAMS = [("toy", 1, (0, 63)), ("toy", 2, (0, 63)),
           ("mid", 1, (0, 511, 2047))]


def _stream_digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        h.update(f"device {t.device}\n".encode())
        for inst in t.instructions:
            h.update(f"{inst.opcode} {inst.operands} {inst.source_select} "
                     f"{inst.copy_bank} {inst.red_mode}\n".encode())
        h.update(f"annotations {t.annotations}\n"
                 f"routines {sorted(t.routines.items())}\n".encode())
    return h.hexdigest()


def _run(argv: list) -> None:
    t = perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    print(f"{argv[0]} {' '.join(argv[1:3])}: exit {code}, "
          f"{perf_counter() - t:.2f} s", file=sys.stderr)
    if code != 0:
        raise SystemExit(f"cxlpim {' '.join(argv)} exited {code}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="directory for the run outputs")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name, run in SIMULATE.items():
        _run(["simulate", *run, "--out", str(out / name)])
    arch = out / "arch_file.json"
    arch.write_text(json.dumps(ARCH_FILE, indent=1) + "\n")
    _run(["simulate", *LOADER["arch-file7b"], "--arch", str(arch),
          "--out", str(out / "arch-file7b")])
    _run(["simulate", *LOADER["set7b"], "--out", str(out / "set7b")])
    _run(["report", "--model", "llama2_70b",
          "--report", str(out / "pp70b" / "report.json"),
          "--out", str(out / "report-pp70b")])
    for name, run in COMPILE.items():
        _run(["compile", *run, "--out", str(out / name)])
    spec = out / "sweep_spec.json"
    spec.write_text(json.dumps(SWEEP, indent=1) + "\n")
    _run(["sweep", "--spec", str(spec), "--out", str(out / "sweep.csv")])

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    for name, devices, positions in STREAMS:
        model, arch = load_config(CONFIGS_DIR / f"{name}.json")
        plan = mapper.plan_pipeline(model, arch, model.max_context,
                                    n_devices=devices)
        layout = compiler.build_layout(model, plan, arch)
        for pos in positions:
            t = perf_counter()
            digest = _stream_digest(compiler.compile_token(model, plan, pos,
                                                           layout=layout))
            print(f"stream {name}-{devices}@{pos}: "
                  f"{perf_counter() - t:.2f} s", file=sys.stderr)
            print(f"{digest}  stream/{name}-{devices}@{pos}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
