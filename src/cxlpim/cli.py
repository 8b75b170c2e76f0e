"""Experiment runner.

Subcommands:

  compile    build a mapping plan and per-block activity summary
  verify     run a compiled token through the functional simulator and
             check it against the float reference (small models only)
  simulate   map -> compile -> timing -> energy/cost for one configuration
  report     recompute energy/TCO/ratio artifacts from a saved report
  sweep      run a list of configurations to one CSV, optionally in
             parallel; row order and bytes are independent of the
             worker count

Model and architecture configs are JSON files; `--model`/`--arch`
accept either a path or the name of a shipped config (see
`src/cxlpim/configs/`).  `--set section.field=value` applies dotted
overrides, e.g. `--set arch.timing.tCL_ns=26` or `--set model.n_layers=4`.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import compiler, energycost, isa, mapper, timesim
from .config import (CONFIGS_DIR, WORD_B, ArchConfig, ConfigError, ModelSpec,
                     apply_overrides, build, load_config, load_json, typed,
                     write_output)

CSV_COLUMNS = ["model", "n_devices", "strategy", "tp", "pp", "dp", "batch",
               "prefill_ms", "decode_ms_per_token", "tokens_per_s",
               "J_per_token", "avg_device_W", "tco_per_hr",
               "tokens_per_dollar"]


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config resolution


def _resolve_config(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    shipped = CONFIGS_DIR / f"{name_or_path.replace('-', '_')}.json"
    if shipped.exists():
        return shipped
    raise CliError(f"no config file or shipped config named {name_or_path!r}")


def _load_configs(model_name: str, arch_name: str | None,
                  overrides: list[str]) -> tuple[ModelSpec, ArchConfig]:
    model, arch = load_config(_resolve_config(model_name))
    if arch_name:
        _, arch = load_config(_resolve_config(arch_name))
    for item in overrides or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        section, _, rest = key.partition(".")
        if section == "model":
            model = apply_overrides(model, {rest: value}, section)
        elif section == "arch":
            arch = apply_overrides(arch, {rest: value}, section)
        else:
            raise CliError(
                f"--set keys start with 'model.' or 'arch.': {item!r}")
    return model, arch


def _build_plan(model: ModelSpec, arch: ArchConfig, strategy: str,
                tp: int, pp: int, devices: int | None,
                context: int) -> mapper.MappingPlan:
    s = strategy.lower()
    if devices is not None and devices < 1:
        raise CliError(f"--devices must be positive, got {devices}")
    if (s in ("tp", "hybrid") and devices is not None
            and devices != arch.n_devices):
        raise CliError(
            f"strategy {s!r} plans over arch.n_devices ({arch.n_devices}) "
            f"devices, not --devices {devices}; use --set "
            f"arch.n_devices={devices}")
    if s == "pp":
        return mapper.plan_pipeline(model, arch, context, n_devices=devices)
    if s == "tp":
        return mapper.plan_tensor(model, arch, context)
    if s == "hybrid":
        return mapper.plan_hybrid(model, arch, tp=tp, pp=pp, context=context)
    if s == "scaled":
        if not devices:
            raise CliError("strategy 'scaled' needs --devices")
        return mapper.plan_scaled(model, arch, devices, context=context)
    raise CliError(f"unknown strategy {strategy!r} "
                   "(expected pp, tp, hybrid, or scaled)")


# ---------------------------------------------------------------------------
# one configuration -> one CSV row


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _price(rep, arch: ArchConfig):
    """Energy and TCO reports of a simulated (or saved) report."""
    er = energycost.energy_from_activity(rep, arch.energy, arch)
    tco = energycost.tco_report(arch.cost, er.fleet_W, rep.tokens_per_s,
                                n_devices=arch.n_devices,
                                host_W=arch.energy.p_host_W)
    return er, tco


@dataclass(frozen=True)
class RunSpec:
    """One sweep row: the `simulate` options a spec may give, with their
    defaults (None: the model's max_context, or context - prefill)."""
    model: str
    arch: str | None = None
    strategy: str = "pp"
    tp: int = 1
    pp: int = 1
    devices: int | None = None
    context: int | None = None
    prefill: int = 512
    decode: int | None = None
    seq_gap: int = 128
    set: list[str] | None = None      # --set overrides, key=value each


def run_config(spec: dict, segment_cache: dict | None = None) -> dict:
    """Execute one configuration (the keys of `RunSpec`); returns the
    CSV row as a dict. Configurations run with one `segment_cache`
    lower each block geometry's position-invariant segments once (see
    `compiler.block_summaries`)."""
    s = build(RunSpec, spec, "spec")
    model, arch = _load_configs(s.model, s.arch, s.set)
    context = model.max_context if s.context is None else s.context
    decode = max(1, context - s.prefill) if s.decode is None else s.decode
    plan = _build_plan(model, arch, s.strategy, s.tp, s.pp, s.devices,
                       context)
    layout = compiler.build_layout(model, plan, arch, segment_cache)
    rep = timesim.simulate_system(model, plan, arch,
                                  prefill_tokens=s.prefill,
                                  decode_tokens=decode, seq_gap=s.seq_gap,
                                  layout=layout)
    er, tco = _price(rep, arch)
    return {
        "model": model.name,
        "n_devices": plan.n_devices,
        "strategy": plan.strategy,
        "tp": plan.tp_degree,
        "pp": plan.pp_stages,
        "dp": plan.dp_replicas,
        "batch": plan.batch_size,
        "prefill_ms": _fmt(rep.prefill_ns / 1e6),
        "decode_ms_per_token": _fmt(rep.token_step_ns / 1e6),
        "tokens_per_s": _fmt(rep.tokens_per_s),
        "J_per_token": _fmt(1.0 / er.tokens_per_J),
        "avg_device_W": _fmt(er.device_avg_W),
        "tco_per_hr": _fmt(tco.owned_USD_per_hr),
        "tokens_per_dollar": _fmt(tco.tokens_per_dollar),
    }


def _expand_specs(specs: list[dict]) -> list[dict]:
    """Expand per-spec context lists into one spec per context."""
    out = []
    for spec in specs:
        ctx = spec.get("context")
        if isinstance(ctx, list):
            for c in ctx:
                out.append({**spec, "context": c})
        else:
            out.append(spec)
    return out


def _run_indexed(item: tuple[int, dict],
                 segment_cache: dict) -> tuple[int, str, object]:
    i, spec = item
    try:
        return i, "ok", run_config(spec, segment_cache)
    except Exception as e:  # isolate the row; the sweep continues
        return i, "error", f"{type(e).__name__}: {e}"


# the block segment cache of a sweep's worker process, for its lifetime
_worker_segments: dict = {}


def _start_worker() -> None:
    global _worker_segments
    _worker_segments = {}


def _run_in_worker(item: tuple[int, dict]) -> tuple[int, str, object]:
    return _run_indexed(item, _worker_segments)


def run_sweep(specs: list[dict], out_path, workers: int = 1) -> int:
    """Run all specs, write the CSV, return the number of failed rows.

    Rows appear in spec order and the output bytes do not depend on the
    worker count. Rows share one cache of block segments (one per
    worker process), so rows with the same model, arch layout numbers
    and block geometry lower each block class once. No more workers
    start than there are rows.
    """
    if workers < 1:
        raise CliError(f"--workers must be positive, got {workers}")
    specs = _expand_specs(specs)
    items = list(enumerate(specs))
    if workers == 1 or len(items) <= 1:
        segment_cache: dict = {}
        results = [_run_indexed(it, segment_cache) for it in items]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                                 initializer=_start_worker) as pool:
            results = list(pool.map(_run_in_worker, items))
    results.sort(key=lambda r: r[0])
    failures = 0
    with open(out_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        w.writeheader()
        for i, status, payload in results:
            if status == "ok":
                w.writerow(payload)
            else:
                failures += 1
                print(f"row {i} ({specs[i].get('model')}): {payload}",
                      file=sys.stderr)
    return failures


# ---------------------------------------------------------------------------
# subcommands


def _note_idle(plan: mapper.MappingPlan) -> None:
    """One stderr line naming the plan's idle devices, if it has any
    (they are always the last devices of the fleet)."""
    idle = plan.idle_devices
    if idle:
        names = (f"device {idle[0]}" if len(idle) == 1
                 else f"devices {idle[0]}-{idle[-1]}")
        print(f"note: {names} of {plan.n_devices} idle", file=sys.stderr)


def _context(args, model: ModelSpec) -> int:
    """--context, or the model's max_context when it is not given."""
    if args.context is None:
        return model.max_context
    if args.context < 1:
        raise CliError(f"--context must be positive, got {args.context}")
    return args.context


def _cmd_compile(args) -> int:
    model, arch = _load_configs(args.model, args.arch, args.set)
    context = _context(args, model)
    plan = _build_plan(model, arch, args.strategy, args.tp, args.pp,
                       args.devices, context)
    pos = args.pos if args.pos is not None else context // 2
    compiler.check_position(model, pos)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plan.save(out / "plan.json")
    layout = compiler.build_layout(model, plan, arch)
    summaries = compiler.block_summaries(model, plan, arch, pos, layout)
    classes = []
    for cls in summaries:
        merged = compiler.TraceSummary()
        for role in sorted(cls.device_summaries):
            merged.merge(cls.device_summaries[role])
        classes.append({
            "count": cls.count,
            "instructions": merged.total_instructions,
            "microops": {k: merged.microops[k]
                         for k in sorted(merged.microops)},
            "mac_fraction": merged.mac_fraction(),
            "cxl_sent_B": merged.cxl_sent_B,
        })
    handoff_B = (len(compiler.handoffs(layout))
                 * compiler.slots_of(model.d_model) * WORD_B)
    write_output(out / "trace_summary.json", json.dumps({
        "model": model.name,
        "strategy": plan.strategy,
        "token_pos": pos,
        "handoff_B_per_token": handoff_B,
        "block_classes": classes,
    }, indent=2) + "\n")
    print(f"plan: {plan.strategy}, batch {plan.batch_size}, "
          f"{len(plan.active_devices)} active devices -> {out}")
    _note_idle(plan)
    return 0


def _cmd_verify(args) -> int:
    import numpy as np

    from . import funcsim

    model, arch = _load_configs(args.model, args.arch, args.set)
    cells = model.n_layers * model.d_model * (model.d_model + model.d_ff)
    if cells > 5e7:
        raise CliError(
            f"{model.name} is too large for functional verification; "
            "use a desk-scale model (e.g. the shipped 'toy')")
    pos = args.pos
    compiler.check_position(model, pos)
    # a pipeline verifies on one device unless --devices says otherwise
    default = 1 if args.strategy.lower() in ("pp", "scaled") else None
    plan = _build_plan(model, arch, args.strategy, args.tp, args.pp,
                       args.devices or default, model.max_context)
    layout = compiler.build_layout(model, plan, arch)
    rng = np.random.default_rng(args.seed)
    weights, ks, vs = [], [], []
    for _ in range(model.n_layers):
        w = {name: funcsim.bf16(rng.normal(scale=0.05, size=(r, c)))
             for name, r, c in compiler._fc_shapes(model)}
        w["w_rms1"] = funcsim.bf16(
            1.0 + rng.normal(scale=0.1, size=model.d_model))
        w["w_rms2"] = funcsim.bf16(
            1.0 + rng.normal(scale=0.1, size=model.d_model))
        weights.append(w)
        shape = (model.n_kv_heads, pos, model.d_head)
        ks.append(funcsim.bf16(rng.normal(scale=0.5, size=shape)))
        vs.append(funcsim.bf16(rng.normal(scale=0.5, size=shape)))
    hidden = funcsim.bf16(rng.normal(size=model.d_model))

    # funcsim (and numpy) load only here, so main() cannot name SimError
    try:
        img = funcsim.prepare_image(layout, weights)
        for b in range(model.n_layers):
            funcsim.load_kv_history(img, layout, b, ks[b], vs[b])
        img.write_slots(layout.blocks[0].master, layout.sb.hidden, hidden)
        traces = compiler.compile_token(model, plan, pos, layout=layout)
        funcsim.run_trace(traces, img, groups=funcsim.tp_groups(plan))
        got = img.read_slots(layout.blocks[-1].master, layout.sb.hidden,
                             model.d_model)
    except funcsim.SimError as e:
        raise CliError(f"functional simulation: {e}") from e

    h = hidden.copy()
    for b in range(model.n_layers):
        # the down projection's column order on the block's own device
        bl = layout.blocks[b]
        perm = bl.placements["down"][bl.master].col_perm
        h, _, _ = funcsim.reference_block(model, weights[b], h, ks[b], vs[b],
                                          pos, match_hardware=True,
                                          down_perm=perm)
    exact = bool(np.array_equal(got, h))
    h64 = hidden.astype(np.float64)
    for b in range(model.n_layers):
        h64, _, _ = funcsim.reference_block(model, weights[b], h64,
                                            ks[b], vs[b], pos)
    diff = funcsim.compare(got, h64, rel_tol=args.rel_tol,
                           abs_floor=float(np.abs(h64).max()))
    print(f"order-matched reference: {'bit-exact' if exact else 'MISMATCH'}")
    print(f"float reference: max rel err {diff.max_rel:.4%} "
          f"({'PASS' if diff.passed else 'FAIL'}, budget {args.rel_tol:.0%})")
    ok = diff.passed and (exact or plan.tp_degree > 1)
    if ok:
        _note_idle(plan)
    return 0 if ok else 1


def _save_run_artifacts(out: Path, er, tco, ratios) -> None:
    out.mkdir(parents=True, exist_ok=True)
    er.save(out / "energy.json")
    tco.save(out / "tco.json")
    write_output(out / "ratios.json", json.dumps(ratios, indent=2) + "\n")


def _gpu_reference(args, arch: ArchConfig) -> dict:
    """GPU figures for the ratios: `--gpu-reference`, else the arch
    config's `cost.gpu_reference`, else the shipped file."""
    if args.gpu_reference:
        return energycost.load_reference_figures(args.gpu_reference)
    return arch.cost.gpu_reference or energycost.load_reference_figures()


def _ratios(rep_tokens_per_s, er, tco, reference: dict) -> dict:
    ours = {"tokens_per_s": rep_tokens_per_s,
            "tokens_per_J": er.tokens_per_J,
            "tco_USD_per_hr": tco.owned_USD_per_hr}
    ref = {"tokens_per_s": reference["tokens_per_s"],
           "tokens_per_J": reference["tokens_per_J"],
           "tco_USD_per_hr": reference["tco_owned_USD_per_hr"]}
    return energycost.reference_ratios(ours, ref)


def _cmd_simulate(args) -> int:
    model, arch = _load_configs(args.model, args.arch, args.set)
    context = _context(args, model)
    plan = _build_plan(model, arch, args.strategy, args.tp, args.pp,
                       args.devices, context)
    decode = (args.decode if args.decode is not None
              else max(1, context - args.prefill))
    rep = timesim.simulate_system(model, plan, arch,
                                  prefill_tokens=args.prefill,
                                  decode_tokens=decode,
                                  seq_gap=args.seq_gap)
    er, tco = _price(rep, arch)
    ratios = _ratios(rep.tokens_per_s, er, tco, _gpu_reference(args, arch))
    if args.out:
        out = Path(args.out)
        _save_run_artifacts(out, er, tco, ratios)
        rep.save(out / "report.json")
        plan.save(out / "plan.json")
    print(f"{model.name} {plan.strategy}: {rep.tokens_per_s:.1f} tokens/s, "
          f"{1.0 / er.tokens_per_J:.3f} J/token, "
          f"{er.device_avg_W:.1f} W/device, "
          f"{tco.owned_USD_per_hr:.3f} $/hr owned")
    _note_idle(plan)
    return 0


def _cmd_report(args) -> int:
    model, arch = _load_configs(args.model, args.arch, args.set)
    data = load_json(Path(args.report).read_text(), args.report)
    rep = build(timesim.SimReport, data, f"{args.report}: report")
    er, tco = _price(rep, arch)
    ratios = _ratios(rep.tokens_per_s, er, tco, _gpu_reference(args, arch))
    _save_run_artifacts(Path(args.out), er, tco, ratios)
    print(f"energy/tco artifacts written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    specs = typed(load_json(Path(args.spec).read_text(), args.spec),
                  list[dict], f"{args.spec}: specs")
    failures = run_sweep(specs, args.out, workers=args.workers)
    if failures:
        print(f"{failures} row(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_args(p, model_required=True):
    p.add_argument("--model", required=model_required,
                   help="model config path or shipped name")
    p.add_argument("--arch", help="architecture config path or shipped name")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted config override, e.g. arch.timing.tCL_ns=26")


def _add_plan_args(p):
    p.add_argument("--strategy", default="pp",
                   choices=["pp", "tp", "hybrid", "scaled"])
    p.add_argument("--tp", type=int, default=1)
    p.add_argument("--pp", type=int, default=1)
    p.add_argument("--devices", type=int,
                   help="device count (pp: subset; scaled: fleet size)")
    p.add_argument("--context", type=int,
                   help="KV capacity per query (default: model max)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cxlpim", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="build a plan and trace summary")
    _add_config_args(p)
    _add_plan_args(p)
    p.add_argument("--pos", type=int, help="token position to summarize")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("verify", help="functional check vs float reference")
    _add_config_args(p)
    _add_plan_args(p)
    p.add_argument("--pos", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=0.02)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="timing + energy + cost for one run")
    _add_config_args(p)
    _add_plan_args(p)
    p.add_argument("--prefill", type=int, default=512)
    p.add_argument("--decode", type=int,
                   help="decode tokens (default: context - prefill)")
    p.add_argument("--seq-gap", type=int, default=128,
                   help="simulate every k-th decode position")
    p.add_argument("--gpu-reference",
                   help="reference figures JSON for ratio reporting")
    p.add_argument("--out", help="directory for run artifacts")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("report", help="energy/TCO from a saved report.json")
    _add_config_args(p)
    p.add_argument("--report", required=True)
    p.add_argument("--gpu-reference")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("sweep", help="run a JSON list of specs to CSV")
    p.add_argument("--spec", required=True,
                   help="JSON file with a list of run specs")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ConfigError, mapper.MappingError,
            compiler.CompileError, isa.IsaError, timesim.TimingError,
            energycost.EnergyError, energycost.CostError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
