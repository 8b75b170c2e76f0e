"""End-to-end acceptance checks.

Each test pins one headline property of the system: functional
correctness at desk scale, the DRAM timing rule on compiled traffic,
mapping and communication-volume reproduction, MAC dominance, energy
and cost calibration, scalability shape, reference-relative ratios,
and worker-count determinism.
"""

import json
import random
import time

import numpy as np
import pytest

from cxlpim import cli, compiler, energycost, funcsim, isa, mapper, timesim
from cxlpim.config import WORD_B, ArchConfig, ModelSpec, TimingParams

from lowering import lower

ARCH = ArchConfig()
T = TimingParams()

TOY = ModelSpec(name="toy", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=1, d_head=64, d_ff=688, max_context=64)
LLAMA_70B = ModelSpec(name="llama2-70b", n_layers=80, d_model=8192,
                      n_heads=64, n_kv_heads=8, d_head=128, d_ff=28672)
LLAMA_13B = ModelSpec(name="llama2-13b", n_layers=40, d_model=5120,
                      n_heads=40, n_kv_heads=40, d_head=128, d_ff=13824)
LLAMA_7B = ModelSpec(name="llama2-7b", n_layers=32, d_model=4096,
                     n_heads=32, n_kv_heads=32, d_head=128, d_ff=11008)

KB = 1024


def within(value, target, rel):
    return abs(value - target) <= rel * target


# ---------------------------------------------------------------------------
# 1. functional correctness at desk scale


@pytest.mark.slow
def test_toy_model_matches_float_reference_within_budget():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    # GEMV sub-results are bit-exact against the order-matched reference
    rows, cols = 32, 256
    w = funcsim.bf16(rng.normal(scale=0.05, size=(rows, cols)))
    x = funcsim.bf16(rng.normal(size=cols))
    pl = compiler.TensorPlacement(name="w", channels=(0,),
                                  rows=rows, cols=cols, base_row=0)
    img = funcsim.MemoryImage(ARCH)
    funcsim.load_gemv_weights(img, 0, pl, w)
    img.write_slots(0, 0, np.zeros(16))    # the shared zero pad
    img.write_slots(0, 100, x)
    trace = lower(lambda em: compiler.emit_gemv(
        em, [compiler.GemvJob(pl, 1024)], ("SB", 100), 0))
    funcsim.run_trace([trace], img)
    got = img.read_slots(0, 1024, rows)
    assert np.array_equal(got, funcsim.gemv_reference(w, x))

    # a full token through the two-block toy model
    pos = 20
    weights, ks, vs = [], [], []
    for _ in range(TOY.n_layers):
        wd = {name: funcsim.bf16(rng.normal(scale=0.05, size=(r, c)))
              for name, r, c in compiler._fc_shapes(TOY)}
        wd["w_rms1"] = funcsim.bf16(1 + rng.normal(scale=0.1, size=TOY.d_model))
        wd["w_rms2"] = funcsim.bf16(1 + rng.normal(scale=0.1, size=TOY.d_model))
        weights.append(wd)
        shape = (TOY.n_kv_heads, pos, TOY.d_head)
        ks.append(funcsim.bf16(rng.normal(scale=0.5, size=shape)))
        vs.append(funcsim.bf16(rng.normal(scale=0.5, size=shape)))
    hidden = funcsim.bf16(rng.normal(size=TOY.d_model))

    plan = mapper.plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=1)
    layout = compiler.build_layout(TOY, plan, ARCH)
    img = funcsim.prepare_image(layout, weights)
    for b in range(TOY.n_layers):
        funcsim.load_kv_history(img, layout, b, ks[b], vs[b])
    img.write_slots(layout.blocks[0].master, layout.sb.hidden, hidden)
    traces = compiler.compile_token(TOY, plan, pos, layout=layout)
    funcsim.run_trace(traces, img, groups=funcsim.tp_groups(plan))
    got = img.read_slots(layout.blocks[-1].master, layout.sb.hidden,
                         TOY.d_model)

    h = hidden.astype(np.float64)
    for b in range(TOY.n_layers):
        h, _, _ = funcsim.reference_block(TOY, weights[b], h, ks[b], vs[b],
                                          pos)
    rep = funcsim.compare(got, h, rel_tol=0.02,
                          abs_floor=float(np.abs(h).max()))
    assert rep.passed, str(rep)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. DRAM timing rule on compiled traffic


def _bracket_rule_ns(insts, t):
    """Busy ns per channel of a GEMV's instructions by the rule stated
    in `timesim`, walking the instruction list itself: one bracket per
    run of MAC_ABKs in one DRAM row, one tCCDS per Global Buffer load
    and one tCL per accumulator drain."""
    runs, io = {}, {}
    for inst in insts:
        for ch in isa.mask_channels(inst.CHmask):
            if inst.opcode == "MAC_ABK":
                r = runs.setdefault(ch, [])
                if r and r[-1][0] == inst.RO:
                    r[-1][1] += inst.OPsize
                else:
                    r.append([inst.RO, inst.OPsize])
            elif inst.opcode == "WR_GB":
                io[ch] = io.get(ch, 0.0) + inst.OPsize * t.tCCDS_ns
            elif inst.opcode == "RD_MAC":
                io[ch] = io.get(ch, 0.0) + t.tCL_ns
    return {ch: io[ch] + sum(timesim.bracket_ns(n, t) for _, n in r)
            for ch, r in runs.items()}


def _compiled_gemv(rows, cols, channels):
    pl = compiler.TensorPlacement(name="w",
                                  channels=tuple(range(channels)),
                                  rows=rows, cols=cols, base_row=0)
    sink = compiler.ListSink(0, ARCH)
    compiler.emit_gemv(sink, [compiler.GemvJob(pl, out_base=1024)],
                       ("SB", 0), sb_zero=0)
    return sink.finish(), sink.instructions


def test_channel_simulator_equals_closed_form_oracle():
    rng = random.Random(20240229)
    for _ in range(200):
        channels = rng.randrange(1, 9)
        # a ragged row group may not straddle channels
        rows = (rng.randrange(1, 700) if channels == 1
                else 16 * rng.randrange(1, 44))
        cols = rng.randrange(1, 5000)
        summary, insts = _compiled_gemv(rows, cols, channels)
        busy = {ch: timesim.channel_busy_ns(st, T)
                for ch, st in summary.channels.items()}
        assert busy == _bracket_rule_ns(insts, T), (rows, cols, channels)
    # 16x8192: 8 activate brackets of 8x(18+64+16) plus the input loads
    # and the accumulator drain
    summary, _ = _compiled_gemv(16, 8192, 1)
    assert timesim.channel_busy_ns(summary.channels[0], T) == \
        8 * (18 + 64 + 16) + 512 + 25


# ---------------------------------------------------------------------------
# 3. mapping reproduction


def test_pipeline_batches_and_device_usage():
    plan = mapper.plan_pipeline(LLAMA_70B, ARCH, context=4096)
    assert plan.batch_size == 80
    used = plan.active_devices
    assert len(used) == 27
    per_device = {d: 0 for d in used}
    for a in plan.block_assignments:
        per_device[a.devices[0]] += 1
    counts = sorted(per_device.values())
    assert counts == [2] + [3] * 26

    assert mapper.plan_pipeline(LLAMA_7B, ARCH, context=4096,
                                n_devices=8).batch_size == 32
    assert mapper.plan_pipeline(LLAMA_13B, ARCH, context=4096,
                                n_devices=20).batch_size == 40


# ---------------------------------------------------------------------------
# 4. communication volume


def test_tensor_parallel_and_boundary_traffic():
    # a 70B tensor-parallel block sends what its trace records: the
    # master broadcasts 5 x 16 KB input vectors, and each of the 31 other
    # devices sends its 17,536 B share of the gathered outputs
    tp = mapper.plan_tensor(LLAMA_70B, ARCH, context=4096)
    (cls,) = compiler.block_summaries(LLAMA_70B, tp, ARCH, 2048)
    sent = sum(s.cxl_sent_B for s in cls.device_summaries.values())
    assert sent == 5 * 16 * KB + 31 * 17536 == 625536

    # each pipeline hand-off the compiled trace sends is one 16 KB
    # hidden vector, one per stage boundary
    pp = mapper.plan_pipeline(LLAMA_70B, ARCH, context=4096)
    layout = compiler.build_layout(LLAMA_70B, pp, ARCH)
    assert len(compiler.handoffs(layout)) == 26
    assert compiler.slots_of(LLAMA_70B.d_model) * WORD_B == 16 * KB


# ---------------------------------------------------------------------------
# 5. MAC dominance


@pytest.mark.slow
def test_mac_microops_dominate_70b_trace():
    plan = mapper.plan_pipeline(LLAMA_70B, ARCH, context=4096)
    merged = compiler.TraceSummary()
    for cls in compiler.block_summaries(LLAMA_70B, plan, ARCH,
                                        token_pos=2048):
        for s in cls.device_summaries.values():
            merged.merge(s, factor=cls.count)
    assert merged.mac_fraction() >= 0.99


# ---------------------------------------------------------------------------
# 6/7/9. energy calibration, cost reproduction, reference ratios
# (one steady-state 70B pipeline run feeds all three)


@pytest.fixture(scope="module")
def steady_70b():
    plan = mapper.plan_pipeline(LLAMA_70B, ARCH, context=4096)
    rep = timesim.simulate_system(LLAMA_70B, plan, ARCH, prefill_tokens=512,
                                  decode_tokens=3584, seq_gap=128)
    er = energycost.energy_from_activity(rep, ARCH.energy, ARCH)
    tco = energycost.tco_report(ARCH.cost, er.fleet_W, rep.tokens_per_s,
                                n_devices=ARCH.n_devices,
                                host_W=ARCH.energy.p_host_W)
    return rep, er, tco


@pytest.mark.slow
def test_energy_calibration(steady_70b):
    _, er, _ = steady_70b
    # one bank MAC column's energy over the bits it consumes
    assert within(ARCH.energy.e_mac_col_pJ / (8 * WORD_B), 0.6, 0.10)
    assert within(er.device_avg_W, 32.4, 0.10)
    assert abs(er.device_fractions["mac"] - 0.545) <= 0.03
    assert abs(er.device_fractions["act_pre"] - 0.302) <= 0.03


@pytest.mark.slow
def test_cost_reproduction(steady_70b):
    _, _, tco = steady_70b
    assert within(tco.unit_cost.total_USD, 11.9, 0.15)
    assert within(tco.hardware_USD, 14873.0, 0.01)
    assert within(tco.owned_USD_per_hr, 0.73, 0.05)
    assert within(tco.rental_USD_per_hr, 1.05, 0.05)


@pytest.mark.slow
def test_reference_relative_ratios(steady_70b):
    rep, er, tco = steady_70b
    gpu = energycost.load_reference_figures()
    ratios = energycost.reference_ratios(
        {"tokens_per_s": rep.tokens_per_s,
         "tokens_per_J": er.tokens_per_J,
         "tco_USD_per_hr": tco.owned_USD_per_hr},
        {"tokens_per_s": gpu["tokens_per_s"],
         "tokens_per_J": gpu["tokens_per_J"],
         "tco_USD_per_hr": gpu["tco_owned_USD_per_hr"]})
    assert within(ratios["throughput_ratio"], 2.3, 0.15)
    assert within(ratios["energy_ratio"], 2.9, 0.15)
    assert within(ratios["tokens_per_dollar_ratio"], 5.2, 0.15)


# ---------------------------------------------------------------------------
# 8. scalability shape


@pytest.mark.slow
def test_device_sweep_shape_and_ratio():
    # context 2048: the 16-device point stacks 5 blocks per device and
    # does not fit at 4K context (see the row-granular capacity check)
    context, prefill, decode, gap = 2048, 512, 1536, 512
    points = [16, 28, 32, 40, 44, 80, 128]
    tokens_per_s = {}
    # one cache as in a sweep: the PP+DP fleets (80 and 128 devices)
    # reuse the 16-device plan's block segments
    segment_cache = {}
    for n in points:
        plan = mapper.plan_scaled(LLAMA_70B, ARCH, n, context=context)
        layout = compiler.build_layout(LLAMA_70B, plan, ARCH, segment_cache)
        rep = timesim.simulate_system(LLAMA_70B, plan, ARCH,
                                      prefill_tokens=prefill,
                                      decode_tokens=decode, seq_gap=gap,
                                      layout=layout)
        tokens_per_s[n] = rep.tokens_per_s
    assert len(segment_cache) == 1
    seq = [tokens_per_s[n] for n in points]
    assert all(a <= b + 1e-9 for a, b in zip(seq, seq[1:]))
    # adding devices 41..44 only grows the idle pool: exactly flat
    assert tokens_per_s[44] == tokens_per_s[40]
    assert within(tokens_per_s[128] / tokens_per_s[16], 8.4, 0.15)


# ---------------------------------------------------------------------------
# 10. worker-count determinism


@pytest.mark.slow
def test_sweep_bytes_identical_across_1_4_and_16_workers(tmp_path):
    specs = [
        {"model": "toy", "context": 64, "prefill": 4, "decode": 8,
         "seq_gap": 1},
        {"model": "toy", "context": 64, "prefill": 8, "decode": 16,
         "seq_gap": 1},
        # one worker lowers the 16-device row's block class for both
        # 70B rows; several workers may lower it once each
        {"model": "llama2_70b", "strategy": "scaled", "devices": 16,
         "context": 2048, "prefill": 512, "decode": 1536, "seq_gap": 1024},
        {"model": "llama2_70b", "strategy": "scaled", "devices": 32,
         "context": 2048, "prefill": 512, "decode": 1536, "seq_gap": 1024},
    ]
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps(specs))
    outputs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}.csv"
        rc = cli.main(["sweep", "--spec", str(spec_path), "--out", str(out),
                       "--workers", str(workers)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
