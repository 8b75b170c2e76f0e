"""The benchmark's three workloads.

Each workload builds its inputs once (verify-toy's from the seed), can
repeat the set-up of its first configuration, and runs one *pass*: the
whole job a user would run, with its outputs checked and hashed.  An
*op* is one simulate call (pp70b-decode), one sweep row (dse-sweep) or
one verified position (verify-toy).
"""

import contextlib
import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cxlpim import (cli, compiler, config, energycost, funcsim, isa, mapper,
                    timesim)
from cxlpim.config import CONFIGS_DIR


@dataclass
class PassResult:
    positions: int = 0          # token positions priced or verified
    attempted: int = 0          # ops
    failed: int = 0             # ops that raised or failed an output check
    setup_s: float = 0.0        # config/plan/layout time inside the pass
    wall_s: float = 0.0         # filled in by the runner
    problems: list = field(default_factory=list)   # failed output checks
    errors: list = field(default_factory=list)     # ops that raised
    digests: dict = field(default_factory=dict)    # output name -> sha256
    sim: dict = field(default_factory=dict)        # simulated quantities


#: simulated quantities and accuracy of pp70b-decode; other workloads read 0
SIM_METRICS = ("sim.token_step_ns", "sim.pim_ns", "sim.pnm_ns",
               "sim.dispatch_ns", "sim.cxl_ns", "sim.channel_util_max",
               "err_throughput_ratio", "err_device_W")


def sampled_positions(prefill: int, decode: int, seq_gap: int) -> int:
    """Positions simulate_system prices for a prefill + decode schedule."""
    return (len(range(0, prefill, seq_gap))
            + len(range(prefill, prefill + decode, seq_gap)))


def _load(name: str):
    return config.load_config(CONFIGS_DIR / f"{name}.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _begin_op(tracer) -> None:
    if tracer is not None:
        tracer.op += 1


class Pp70bDecode:
    """Llama2-70B pipelined over 32 devices, one `cxlpim simulate` run:
    timing, then energy and TCO pricing."""

    name = "pp70b-decode"
    PREFILL, DECODE, SEQ_GAP = 512, 3584, 512
    THROUGHPUT_RATIO, DEVICE_W = 2.3, 32.4       # paper's headline figures
    RATIO_TOL, WATTS_TOL = 0.15, 0.10            # acceptance-test tolerances

    def __init__(self, seed: int, work_dir: Path):
        self.out_dir = work_dir / self.name

    @classmethod
    def setup(cls):
        model, arch = _load("llama2_70b")
        plan = mapper.plan_pipeline(model, arch, model.max_context)
        return model, arch, plan, compiler.build_layout(model, plan, arch)

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(positions=sampled_positions(
            self.PREFILL, self.DECODE, self.SEQ_GAP), attempted=1)
        _begin_op(tracer)
        t = perf_counter()
        model, arch, plan, layout = self.setup()
        res.setup_s = perf_counter() - t
        try:
            rep = timesim.simulate_system(
                model, plan, arch, prefill_tokens=self.PREFILL,
                decode_tokens=self.DECODE, seq_gap=self.SEQ_GAP,
                layout=layout)
            er = energycost.energy_from_activity(rep, arch.energy, arch)
            tco = energycost.tco_report(arch.cost, er.fleet_W,
                                        rep.tokens_per_s,
                                        n_devices=arch.n_devices,
                                        host_W=arch.energy.p_host_W)
        except Exception as e:  # a failed op; the run goes on
            res.failed = 1
            res.errors.append(f"simulate: {type(e).__name__}: {e}")
            return res
        # the same files `cxlpim simulate --out` writes
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rep.save(self.out_dir / "report.json")
        er.save(self.out_dir / "energy.json")
        tco.save(self.out_dir / "tco.json")
        for fname in ("report.json", "energy.json", "tco.json"):
            res.digests[fname] = _sha256((self.out_dir / fname).read_bytes())

        reference = (arch.cost.gpu_reference
                     or energycost.load_reference_figures())
        ratio = rep.tokens_per_s / reference["tokens_per_s"]
        err_ratio = abs(ratio - self.THROUGHPUT_RATIO) / self.THROUGHPUT_RATIO
        err_watts = abs(er.device_avg_W - self.DEVICE_W) / self.DEVICE_W
        if not err_ratio <= self.RATIO_TOL:
            res.problems.append(
                f"throughput ratio {ratio:.4f} outside "
                f"{self.THROUGHPUT_RATIO} +-{self.RATIO_TOL:.0%}")
        if not err_watts <= self.WATTS_TOL:
            res.problems.append(f"{er.device_avg_W:.3f} W/device outside "
                                f"{self.DEVICE_W} +-{self.WATTS_TOL:.0%}")
        res.failed = int(bool(res.problems))
        res.sim = {
            "sim.token_step_ns": rep.token_step_ns,
            "sim.pim_ns": rep.breakdown_ns["pim"],
            "sim.pnm_ns": rep.breakdown_ns["pnm"],
            "sim.dispatch_ns": rep.breakdown_ns["dispatch"],
            "sim.cxl_ns": rep.breakdown_ns["cxl"],
            "sim.channel_util_max": max(
                u for chans in rep.channel_utilization.values()
                for u in chans.values()),
            "err_throughput_ratio": err_ratio,
            "err_device_W": err_watts,
        }
        return res


class DseSweep:
    """`cxlpim sweep` at one worker over a design-space list whose
    configs each price one position (toy: all 64)."""

    name = "dse-sweep"
    # 13B tensor parallel is left out: it raises CompileError
    # ("bank-streamed input cannot feed packed matrix rows").
    # The 64-device row fails at pricing today (EnergyError: active
    # devices outside the priced fleet); it stays in and counts as failed.
    SPECS = [
        {"model": "llama2_7b", "strategy": "pp", "devices": 8,
         "prefill": 0, "decode": 4096, "seq_gap": 4096},
        {"model": "llama2_13b", "strategy": "pp",
         "prefill": 0, "decode": 4096, "seq_gap": 4096},
        {"model": "llama2_70b", "strategy": "tp",
         "prefill": 0, "decode": 4096, "seq_gap": 4096},
        {"model": "llama2_70b", "strategy": "hybrid", "tp": 4, "pp": 8,
         "prefill": 0, "decode": 4096, "seq_gap": 4096},
        {"model": "llama2_70b", "strategy": "scaled", "devices": 16,
         "context": 2048, "prefill": 0, "decode": 2048, "seq_gap": 2048},
        {"model": "llama2_70b", "strategy": "scaled", "devices": 32,
         "context": 2048, "prefill": 0, "decode": 2048, "seq_gap": 2048},
        {"model": "llama2_70b", "strategy": "scaled", "devices": 64,
         "context": 2048, "prefill": 0, "decode": 2048, "seq_gap": 2048},
        {"model": "toy", "prefill": 16, "decode": 48, "seq_gap": 1},
    ]
    NUMERIC = [c for c in cli.CSV_COLUMNS if c not in ("model", "strategy")]

    def __init__(self, seed: int, work_dir: Path):
        self.out_dir = work_dir / self.name

    @classmethod
    def setup(cls):
        spec = cls.SPECS[0]
        model, arch = _load(spec["model"])
        plan = mapper.plan_pipeline(model, arch, model.max_context,
                                    n_devices=spec["devices"])
        return model, arch, plan, compiler.build_layout(model, plan, arch)

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult(
            attempted=len(self.SPECS),
            positions=sum(sampled_positions(s["prefill"], s["decode"],
                                            s["seq_gap"])
                          for s in self.SPECS))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        out = self.out_dir / "sweep.csv"
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            res.failed = cli.run_sweep(self.SPECS, out, workers=1)
        data = out.read_bytes()
        res.digests["sweep.csv"] = _sha256(data)
        res.errors = [line for line in log.getvalue().splitlines()
                      if line.startswith("row ")]
        failed_rows = {int(re.match(r"row (\d+) ", line).group(1))
                       for line in res.errors}
        ok_rows = [i for i in range(len(self.SPECS)) if i not in failed_rows]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(failed_rows) != res.failed or len(rows) != len(ok_rows):
            res.problems.append(f"{len(rows)} CSV rows and {res.failed} "
                                f"failures for {len(self.SPECS)} specs")
            return res
        for i, row in zip(ok_rows, rows):
            spec = self.SPECS[i]
            for col in self.NUMERIC:
                v = float(row[col])
                # a row without prefill has exactly zero prefill time
                want_zero = col == "prefill_ms" and spec["prefill"] == 0
                if not math.isfinite(v) or (v == 0) != want_zero or v < 0:
                    res.problems.append(f"row {i} {col}={row[col]}")
        return res


class VerifyToy:
    """Functional verification of the shipped toy model on a 1-device
    and a 2-device pipeline at seed-chosen positions."""

    name = "verify-toy"
    N_POSITIONS = 4
    DEVICES = (1, 2)

    def __init__(self, seed: int, work_dir: Path):
        model, _ = _load("toy")
        rng = np.random.default_rng(seed)
        # one position in each quarter of the context, so that every
        # seed asks for about the same work
        quarter = model.max_context // self.N_POSITIONS
        self.positions = [q * quarter + int(rng.integers(quarter))
                          for q in range(self.N_POSITIONS)]
        self.weights = []
        for _ in range(model.n_layers):
            w = {name: funcsim.bf16(rng.normal(scale=0.05, size=(r, c)))
                 for name, r, c in compiler._fc_shapes(model)}
            w["w_rms1"] = funcsim.bf16(
                1.0 + rng.normal(scale=0.1, size=model.d_model))
            w["w_rms2"] = funcsim.bf16(
                1.0 + rng.normal(scale=0.1, size=model.d_model))
            self.weights.append(w)
        shape = (model.n_kv_heads, model.max_context, model.d_head)
        self.k_hist = [funcsim.bf16(rng.normal(scale=0.5, size=shape))
                       for _ in range(model.n_layers)]
        self.v_hist = [funcsim.bf16(rng.normal(scale=0.5, size=shape))
                       for _ in range(model.n_layers)]
        self.hidden = {p: funcsim.bf16(rng.normal(size=model.d_model))
                       for p in self.positions}

    @classmethod
    def setup(cls, n_devices: int = 1):
        model, arch = _load("toy")
        plan = mapper.plan_pipeline(model, arch, model.max_context,
                                    n_devices=n_devices)
        return model, arch, plan, compiler.build_layout(model, plan, arch)

    def _verify(self, model, arch, plan, layout, pos: int):
        """Run one token at `pos`; returns (output, list of problems)."""
        ks = [k[:, :pos] for k in self.k_hist]
        vs = [v[:, :pos] for v in self.v_hist]
        img = funcsim.prepare_image(layout, self.weights)
        for b, bl in enumerate(layout.blocks):
            funcsim.load_kv_history(img, layout, b, ks[bl.block],
                                    vs[bl.block])
        img.write_slots(layout.blocks[0].master, layout.sb.hidden,
                        self.hidden[pos])
        traces = compiler.compile_token(model, plan, pos, layout=layout)
        report = isa.validate_trace(
            {t.device: t.instructions for t in traces}, arch)
        funcsim.run_trace(traces, img, groups=funcsim.tp_groups(plan))
        got = img.read_slots(layout.blocks[-1].master, layout.sb.hidden,
                             model.d_model)
        h = self.hidden[pos].copy()
        for bl in layout.blocks:
            # the down projection's column order on the block's own device
            perm = bl.placements["down"][bl.master].col_perm
            h, _, _ = funcsim.reference_block(
                model, self.weights[bl.block], h, ks[bl.block],
                vs[bl.block], pos, match_hardware=True, down_perm=perm)
        problems = []
        if not report.well_formed:
            problems.append(f"{len(report.findings)} trace findings, first: "
                            f"{report.findings[0]}")
        if not np.array_equal(got, h):
            problems.append("output differs from the order-matched "
                            "reference")
        return got, problems

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        outputs = hashlib.sha256()
        for n_devices in self.DEVICES:
            t = perf_counter()
            model, arch, plan, layout = self.setup(n_devices)
            res.setup_s += perf_counter() - t
            for pos in self.positions:
                _begin_op(tracer)
                res.attempted += 1
                res.positions += 1
                where = f"{n_devices} device(s), position {pos}"
                try:
                    got, problems = self._verify(model, arch, plan, layout,
                                                 pos)
                except Exception as e:  # a failed op; the run goes on
                    res.failed += 1
                    res.errors.append(f"{where}: {type(e).__name__}: {e}")
                    continue
                outputs.update(np.ascontiguousarray(got).tobytes())
                if problems:
                    res.failed += 1
                    res.problems += [f"{where}: {p}" for p in problems]
        res.digests["hidden_states"] = outputs.hexdigest()
        return res


WORKLOADS = {w.name: w for w in (Pp70bDecode, DseSweep, VerifyToy)}
