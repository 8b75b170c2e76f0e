import dataclasses
import json
import random

import pytest

from collections import Counter

from cxlpim import compiler, isa, mapper, timesim
from cxlpim.compiler import ChannelStats
from cxlpim.config import (CONFIGS_DIR, REGS, WORD_B, ArchConfig, CxlParams,
                           ModelSpec, TimingParams, load_config)
from cxlpim.timesim import (
    SimReport, TimingError, bracket_ns, channel_busy_ns, cxl_transfer_time,
    device_times, simulate_system,
)

from lowering import lower

T = TimingParams()
ARCH = ArchConfig()

TINY = ModelSpec(name="tiny", n_layers=2, d_model=128, n_heads=2,
                 n_kv_heads=1, d_head=64, d_ff=2048, max_context=64)
# toy-scale model whose FFN splits over tp=4
TP4 = ModelSpec(name="tp4", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=1, d_head=64, d_ff=4096, max_context=64)

LLAMA_70B = ModelSpec(name="llama2-70b", n_layers=80, d_model=8192,
                      n_heads=64, n_kv_heads=8, d_head=128, d_ff=28672)
LLAMA_7B, _ = load_config(CONFIGS_DIR / "llama2_7b.json")
TOY, _ = load_config(CONFIGS_DIR / "toy.json")


def compiled_gemv(rows, cols, channels=1):
    """Trace summary of one rows x cols GEMV as the compiler lowers it,
    its row groups dealt over `channels` channels of device 0."""
    pl = compiler.TensorPlacement(name="w",
                                  channels=tuple(range(channels)),
                                  rows=rows, cols=cols, base_row=0)
    sink = compiler.CountSink(0, ARCH)
    compiler.emit_gemv(sink, [compiler.GemvJob(pl, out_base=1024)],
                       ("SB", 0), sb_zero=0)
    return sink.finish()


def gemv_ns(rows, cols, channels=1, t=T):
    """Busy time of the slowest channel of a compiled GEMV."""
    summary = compiled_gemv(rows, cols, channels)
    return max(channel_busy_ns(st, t) for st in summary.channels.values())


# ---------------------------------------------------------------------------
# the DRAM rule on compiled GEMVs

def test_single_mac_bracket_is_tras_bound():
    # one 1-column MAC: the precharge waits for tRAS, 18 + max(1, 27-18)
    # + 16 = 43
    st = compiled_gemv(16, 16).channels[0]
    assert dict(st.bracket_hist) == {1: 1}
    assert bracket_ns(1, T) == 43.0


def test_full_row_bracket_is_execution_bound():
    # one 64-column bracket, 18 + 64 + 16, its 64 Global Buffer loads
    # and one drain
    assert gemv_ns(16, 1024) == 98 + 64 + 25


def test_empty_stream():
    assert channel_busy_ns(ChannelStats(), T) == 0.0


def test_adding_commands_never_decreases_finish():
    st = compiled_gemv(64, 2048, 2).channels[0]
    base = channel_busy_ns(st, T)
    for n_cols in (1, 9, 10, 64):
        more = dataclasses.replace(st, bracket_hist=Counter(st.bracket_hist))
        more.bracket_hist[n_cols] += 1
        assert channel_busy_ns(more, T) >= base


def test_closed_form_16x8192():
    # 8 DRAM rows of 64 columns: 8 x 98 = 784 ns of bracket time, plus
    # 512 Global Buffer loads and one accumulator drain
    assert gemv_ns(16, 8192) == 8 * 98 + 512 + 25


def test_closed_form_16x16():
    assert gemv_ns(16, 16) == 43 + 1 + 25


def test_channel_busy_matches_closed_form():
    # 32x2048 on one channel: 2 groups x 2 row tiles, 128 buffer loads,
    # 2 accumulator drains
    assert gemv_ns(32, 2048) == 4 * 98 + 128 + 2 * 25


def test_simulator_matches_closed_form_200_random_shapes():
    # A GEMV wider than one DRAM row has tiles of 64 slots and a ragged
    # last one, and one row group per DRAM row in each tile. Group j
    # lives on channel ordinal j % channels; a channel holding g groups
    # runs g brackets per tile, drains g accumulators and loads the
    # whole vector once per batch of up to REGS groups.
    rng = random.Random(20240229)
    for _ in range(200):
        channels = rng.randrange(1, 9)
        rows = (rng.randrange(1, 1100) if channels == 1
                else 16 * rng.randrange(1, 69))
        cols = rng.randrange(1025, 6000)
        slots = -(-cols // 16)
        tiles = [64] * (slots // 64) + ([slots % 64] if slots % 64 else [])
        groups = -(-rows // 16)
        want = {}
        for k in range(min(channels, groups)):
            g = len(range(k, groups, channels))
            want[k] = (g * sum(18 + max(s, 9) + 16 for s in tiles)
                       + -(-g // REGS) * slots + g * 25)
        summary = compiled_gemv(rows, cols, channels)
        got = {ch: channel_busy_ns(st, T)
               for ch, st in summary.channels.items()}
        assert got == want, (rows, cols, channels)


def test_packed_rows_share_one_bracket():
    # 624x18 on 8 channels: 39 row groups of 2 slots each, 5 on
    # channels 0-6. A 2-slot tile packs 32 groups per DRAM row, so a
    # channel's 5 MACs run in one row: one bracket of 10 columns,
    # 18 + max(10, 9) + 16 = 44. The Global Buffer holds 5 copies of
    # the vector (5 x 2 loads) and 5 groups drain: 10 + 44 + 5 x 25
    assert gemv_ns(624, 18, 8) == 10 + 44 + 125


def test_register_batches_restream_the_input():
    # 528x1860 on one channel: 117 slots in tiles of 64 and 53, 33 row
    # groups. 32 registers take groups 0-31, then group 32 alone, and
    # each batch loads the whole vector: 2 x 117 loads. Every group
    # holds one row per tile: 33 brackets of 18 + 64 + 16 = 98 and 33
    # of 18 + 53 + 16 = 87. 33 drains: 234 + 3234 + 2871 + 825
    assert gemv_ns(528, 1860) == 2 * 117 + 33 * 98 + 33 * 87 + 33 * 25


def test_doubling_channels_halves_bracket_term():
    # 128x4096: 8 row groups; both channels load the whole vector
    one = gemv_ns(128, 4096, 1)
    two = gemv_ns(128, 4096, 2)
    io = 256 * T.tCCDS_ns
    assert one - io == 2 * (two - io)


def test_latency_monotone_in_every_timing_parameter():
    base = gemv_ns(64, 2048, 2)
    for name in ("tRCDRD_ns", "tRAS_ns", "tCL_ns", "tCCDS_ns", "tRP_ns"):
        bumped = dataclasses.replace(T, **{name: getattr(T, name) + 4})
        assert gemv_ns(64, 2048, 2, bumped) >= base


def test_refresh_inflates_latency():
    on = dataclasses.replace(T, refresh_enabled=True)
    assert gemv_ns(16, 1024, t=on) == pytest.approx(
        gemv_ns(16, 1024) * (1 + T.tRFC_ns / T.tREFI_ns), rel=1e-12)
    assert gemv_ns(16, 1024, t=on) > gemv_ns(16, 1024)


def test_channel_busy_ignores_histogram_order():
    # composed trace segments count brackets in another order than one
    # sink; with non-integer timings float sums would see the difference
    t = dataclasses.replace(T, tCCDS_ns=0.7)
    items = [(13, 3), (64, 1), (29, 7), (17, 5)]
    busy = set()
    for order in (items, [items[i] for i in (2, 3, 0, 1)]):
        st = ChannelStats()
        for n_cols, count in order:
            st.bracket_hist[n_cols] = count
        busy.add(channel_busy_ns(st, t))
    assert len(busy) == 1


def test_bracket_floor_is_tras_plus_trp():
    assert bracket_ns(1, T) == 43.0
    assert bracket_ns(9, T) == 43.0
    assert bracket_ns(10, T) == 44.0


# ---------------------------------------------------------------------------
# CXL transfer model

CXL = CxlParams()


def test_p2p_16kb():
    assert cxl_transfer_time(16384, "P2P", 1, CXL) == pytest.approx(968.9, 0.001)


def test_multicast_doubles_latency_halves_bandwidth():
    assert cxl_transfer_time(16384, "MULTICAST", 31, CXL) == pytest.approx(
        1937.8, 0.001)


def test_gather_serializes_on_receiver():
    one = cxl_transfer_time(4096, "GATHER", 1, CXL)
    four = cxl_transfer_time(4096, "GATHER", 4, CXL)
    assert four - CXL.base_latency_ns == pytest.approx(
        4 * (one - CXL.base_latency_ns), rel=1e-12)


def test_zero_fanout_gather_is_base_latency():
    assert cxl_transfer_time(4096, "GATHER", 0, CXL) == CXL.base_latency_ns


def test_unknown_transfer_kind():
    with pytest.raises(TimingError, match="kind"):
        cxl_transfer_time(4096, "ALLTOALL", 1, CXL)


# ---------------------------------------------------------------------------
# system simulation

def tiny_pp_report(**kw):
    plan = mapper.plan_pipeline(TINY, ARCH, 64, n_devices=2)
    args = dict(prefill_tokens=4, decode_tokens=8, seq_gap=1)
    args.update(kw)
    return simulate_system(TINY, plan, ARCH, **args)


def test_tiny_pipeline_report_shape():
    rep = tiny_pp_report()
    assert rep.tokens_per_s > 0
    assert rep.prefill_ns > 0 and rep.decode_ns > 0
    assert rep.token_latency_ns > rep.token_step_ns
    total = sum(rep.breakdown_ns.values())
    assert rep.token_latency_ns == pytest.approx(total, rel=1e-9)
    # near-bank command streams dominate the latency budget
    assert rep.breakdown_ns["pim"] > 0.5 * total


def test_report_is_deterministic():
    assert tiny_pp_report().to_dict() == tiny_pp_report().to_dict()


def test_report_round_trips_to_json(tmp_path):
    rep = tiny_pp_report()
    out = tmp_path / "report.json"
    rep.save(out)
    import json
    d = json.loads(out.read_text())
    assert d["tokens_per_s"] == rep.tokens_per_s
    assert d["command_counts"]["MACab"] == rep.command_counts["MACab"]


@pytest.mark.parametrize("model, plan_of", [
    (LLAMA_70B, lambda: mapper.plan_pipeline(LLAMA_70B, ARCH, 4096)),
    (LLAMA_70B, lambda: mapper.plan_tensor(LLAMA_70B, ARCH, 4096)),
    (LLAMA_70B, lambda: mapper.plan_hybrid(LLAMA_70B, ARCH, tp=4, pp=8,
                                           context=4096)),
    (LLAMA_70B, lambda: mapper.plan_scaled(LLAMA_70B, ARCH, 16,
                                           context=2048)),
    (LLAMA_7B, lambda: mapper.plan_pipeline(LLAMA_7B, ARCH, 4096,
                                            n_devices=8)),
    (TOY, lambda: mapper.plan_pipeline(TOY, ARCH, 64, n_devices=1)),
], ids=["70b-pp", "70b-tp", "70b-hybrid", "70b-scaled16", "7b-pp8", "toy"])
def test_report_saves_the_bytes_of_one_indented_dump(tmp_path, model,
                                                     plan_of):
    rep = simulate_system(model, plan_of(), ARCH, 0, 64, seq_gap=64)
    _assert_saves_one_indented_dump(rep, tmp_path)


def _assert_saves_one_indented_dump(rep, tmp_path):
    out = tmp_path / "report.json"
    rep.save(out)
    assert out.read_bytes() == (json.dumps(rep.to_dict(), indent=1,
                                           sort_keys=True) + "\n").encode()


def test_report_saves_any_device_tables_as_one_indented_dump(tmp_path):
    rep = tiny_pp_report()
    tables = {str(d): {str(c): (d * 7 + c) / 64 for c in range(12)}
              for d in range(11)}
    tables["3"] = {}
    rep.channel_utilization = tables
    _assert_saves_one_indented_dump(rep, tmp_path)
    rep.channel_utilization = {}
    _assert_saves_one_indented_dump(rep, tmp_path)
    rep.channel_utilization = {"1": {}, "0": {}}
    _assert_saves_one_indented_dump(rep, tmp_path)


def test_attention_growth_raises_latency():
    early = tiny_pp_report(prefill_tokens=0, decode_tokens=4)
    late = tiny_pp_report(prefill_tokens=40, decode_tokens=4)
    assert late.token_latency_ns > early.token_latency_ns
    assert late.tokens_per_s < early.tokens_per_s


def test_seq_gap_sampling_stays_close():
    dense = tiny_pp_report(decode_tokens=16, seq_gap=1)
    coarse = tiny_pp_report(decode_tokens=16, seq_gap=8)
    assert coarse.decode_ns == pytest.approx(dense.decode_ns, rel=0.05)


def test_data_parallel_replica_doubles_throughput():
    one = mapper.plan_scaled(TINY, ARCH, 1, context=64)
    two = mapper.plan_scaled(TINY, ARCH, 2, context=64)
    assert two.dp_replicas == 2
    r1 = simulate_system(TINY, one, ARCH, 0, 8)
    r2 = simulate_system(TINY, two, ARCH, 0, 8)
    assert r2.tokens_per_s == 2 * r1.tokens_per_s
    assert r2.command_counts["MACab"] == 2 * r1.command_counts["MACab"]
    assert r2.flops_per_token == r1.flops_per_token


def test_bad_query_shapes_rejected():
    with pytest.raises(TimingError):
        tiny_pp_report(decode_tokens=0)
    with pytest.raises(TimingError):
        tiny_pp_report(prefill_tokens=60, decode_tokens=8)  # context 64
    with pytest.raises(TimingError):
        tiny_pp_report(seq_gap=0)


def test_gemv_work_conservation():
    # every MAC micro-op is 16 bank-columns x 16 lanes x mul-add
    pl = compiler.TensorPlacement(
        name="w", channels=(0,), rows=16, cols=1024, base_row=0)
    insts = lower(lambda em: compiler.emit_gemv(
        em, [compiler.GemvJob(pl, 1024)], ("SB", 0), 0)).instructions
    mac = sum(isa.microop_count(i.opcode, i.operands) for i in insts
              if i.opcode == "MAC_ABK")
    assert mac * 16 * 32 == 2 * 16 * 1024


@pytest.mark.slow
def test_70b_tensor_vs_hybrid_breakdown():
    # wider tensor parallelism trades bank time for fabric time
    tp32 = mapper.plan_tensor(LLAMA_70B, ARCH, 4096)
    tp8 = mapper.plan_hybrid(LLAMA_70B, ARCH, tp=8, pp=4, context=4096)
    r32 = simulate_system(LLAMA_70B, tp32, ARCH, 0, 1)
    r8 = simulate_system(LLAMA_70B, tp8, ARCH, 0, 1)
    assert r32.breakdown_ns["pim"] < r8.breakdown_ns["pim"]
    assert r32.breakdown_ns["cxl"] > r8.breakdown_ns["cxl"]


@pytest.mark.slow
def test_70b_pipeline_steady_state():
    plan = mapper.plan_pipeline(LLAMA_70B, ARCH, 4096)
    rep = simulate_system(LLAMA_70B, plan, ARCH, 0, 1, layout=None)
    # bottleneck stage is a 3-block device; all tokens flow through it
    assert rep.tokens_per_s == pytest.approx(1e9 / rep.token_step_ns)
    per_block = [v for v in rep.breakdown_ns.values()]
    assert rep.token_step_ns < rep.token_latency_ns / 20


# ---------------------------------------------------------------------------
# per-class composition against the per-block walk

def _reference_token_profile(layout, plan, arch, pos):
    """One forward pass at `pos`, walking every block: each block adds
    its class's device times, the price of each CXL collective its
    class's trace records, each of its channels' busy time and its
    activity counts. A block whose predecessor in its replica ran on
    another master first receives the hidden state from it, point to
    point; replica 0's hand-offs are priced and charged to the sender,
    every replica's are counted in CXL_B. (token_ns, step_ns, pim, pnm,
    dispatch, cxl, counts, busy)."""
    t = arch.timing
    classes = compiler.block_summaries(layout.model, plan, arch, pos, layout)
    by_key = {compiler._structure_key(c.representative): c for c in classes}
    role_times = {key: {di: device_times(s, t, arch.pnm_clock_Hz)
                        for di, s in cls.device_summaries.items()}
                  for key, cls in by_key.items()}
    hop_B = compiler.slots_of(layout.model.d_model) * WORD_B

    token = pim = pnm = dispatch = cxl_total = 0.0
    counts = Counter()
    stage_ns, busy = {}, {}
    prev_master, n_hops = {}, 0               # replica -> last master
    for bl in layout.blocks:
        key = compiler._structure_key(bl)
        cls = by_key[key]
        src = prev_master.get(bl.replica, bl.master)
        prev_master[bl.replica] = bl.master
        n_hops += src != bl.master
        if bl.replica == 0:
            if src != bl.master:
                hop = cxl_transfer_time(hop_B, "P2P", 1, arch.cxl)
                stage_ns[src] = stage_ns.get(src, 0.0) + hop
                cxl_total += hop
                token += hop
            worst = max(role_times[key].values(),
                        key=lambda d: d["pim"] + d["pnm"] + d["dispatch"])
            compute = worst["pim"] + worst["pnm"] + worst["dispatch"]
            collectives = Counter()
            for s in cls.device_summaries.values():
                collectives.update(s.collectives)
            cxl = 0.0
            for (kind, fan_in, sender_B), n in sorted(collectives.items()):
                cxl += n * cxl_transfer_time(sender_B, kind, fan_in, arch.cxl)
            token += compute + cxl
            pim += worst["pim"]
            pnm += worst["pnm"]
            dispatch += worst["dispatch"]
            cxl_total += cxl
            stage_ns[bl.master] = stage_ns.get(bl.master, 0.0) + compute + cxl
            for di, dev in enumerate(bl.tp_group):
                chan_map = dict(zip(cls.representative.assignment.channels[di],
                                    bl.assignment.channels[di]))
                dbusy = busy.setdefault(dev, {})
                for ch_rep, st in cls.device_summaries[di].channels.items():
                    ch = chan_map.get(ch_rep, ch_rep)
                    dbusy[ch] = dbusy.get(ch, 0.0) + channel_busy_ns(st, t)
        for di in range(len(bl.tp_group)):
            timesim._merge_counts(counts, cls.device_summaries[di])
    counts["CXL_B"] += n_hops * hop_B
    step = max(stage_ns.values(), default=token)
    return token, step, pim, pnm, dispatch, cxl_total, counts, busy


def _reference_report(model, plan, arch, prefill, decode, seq_gap):
    layout = compiler.build_layout(model, plan, arch)
    prefill_ns = 0.0
    for pos, w in timesim._sample_positions(0, prefill, seq_gap):
        prefill_ns += w * _reference_token_profile(layout, plan, arch,
                                                   pos)[0]
    decode_ns = step_total = 0.0
    counts, agg = Counter(), Counter()
    for pos, w in timesim._sample_positions(prefill, decode, seq_gap):
        last = _reference_token_profile(layout, plan, arch, pos)
        token, step, *parts, pos_counts, busy = last
        decode_ns += w * token
        step_total += w * step
        for k, v in pos_counts.items():
            counts[k] += w * v
        for k, v in zip(("pim", "pnm", "dispatch", "cxl"), parts):
            agg[k] += w * v
    n = decode
    step_ns = step_total / n
    return SimReport(
        strategy=plan.strategy, n_active_devices=len(plan.active_devices),
        dp_replicas=plan.dp_replicas, batch_size=plan.batch_size,
        prefill_tokens=prefill, decode_tokens=decode, seq_gap=seq_gap,
        token_latency_ns=token, token_step_ns=step_ns,
        prefill_ns=prefill_ns, decode_ns=decode_ns,
        tokens_per_s=plan.dp_replicas * 1e9 / step_ns,
        breakdown_ns={k: agg[k] / n for k in
                      ("pim", "pnm", "dispatch", "cxl")},
        command_counts={k: counts[k] / n for k in counts},
        flops_per_token=(counts["MACab"] / n / plan.dp_replicas) * 16 * 32,
        mac_microops_per_token=counts["MACab"] / n / plan.dp_replicas,
        channel_utilization={
            str(dev): {str(ch): b / step for ch, b in sorted(chs.items())}
            for dev, chs in sorted(busy.items())},
    ).to_dict()


ARCH4 = ArchConfig(n_devices=4)


@pytest.mark.parametrize("model, arch, plan_of", [
    (TINY, ARCH, lambda: mapper.plan_pipeline(TINY, ARCH, 64, n_devices=2)),
    (TP4, ARCH4, lambda: mapper.plan_tensor(TP4, ARCH4, 64)),
    (TP4, ARCH, lambda: mapper.plan_hybrid(TP4, ARCH, tp=4, pp=2,
                                           context=64)),
    (TINY, ARCH, lambda: mapper.plan_scaled(TINY, ARCH, 2, context=64)),
], ids=["pp2", "tp4", "hybrid-tp4-pp2", "scaled-2-replicas"])
def test_per_class_composition_equals_per_block_walk(model, arch, plan_of):
    plan = plan_of()
    if plan.strategy == "PP+DP":
        assert plan.dp_replicas == 2
    for prefill, decode, gap in ((0, 1, 1), (5, 40, 7), (16, 48, 16)):
        got = simulate_system(model, plan, arch, prefill, decode, gap)
        assert got.to_dict() == _reference_report(
            model, plan, arch, prefill, decode, gap), (prefill, decode, gap)


# a fabric that charges 1 ns per byte and nothing per transfer: under it,
# the CXL time _token_profile prices is the number of bytes it prices
UNIT_CXL = CxlParams(link_bandwidth_Bps=1e9, link_efficiency=1.0,
                     base_latency_ns=0.0, multicast_bandwidth_factor=1.0)


@pytest.mark.parametrize("model, n_devices, plan_of", [
    (TINY, 2, lambda m, a: mapper.plan_tensor(m, a, 64)),
    (TP4, 32, lambda m, a: mapper.plan_hybrid(m, a, tp=4, pp=1, context=64)),
    (TOY, 32, lambda m, a: mapper.plan_pipeline(m, a, 64, n_devices=2)),
], ids=["tiny-tp2", "tp4-hybrid-tp4-pp1", "toy-pp2"])
def test_priced_cxl_bytes_equal_trace_sends(model, n_devices, plan_of):
    arch = ArchConfig(n_devices=n_devices, cxl=UNIT_CXL)
    plan = plan_of(model, arch)
    layout = compiler.build_layout(model, plan, arch)
    for pos in (0, 17, 63):
        # per class: the collectives recorded carry the BCAST_CXL and
        # SEND_CXL words its devices emit (a multicast sends its payload
        # once, a gather once per sender)
        for cls in compiler.block_summaries(model, plan, arch, pos, layout):
            roles = cls.device_summaries.values()
            recorded, sent = Counter(), Counter()
            for s in roles:
                for (kind, fan_in, sender_B), n in s.collectives.items():
                    recorded[kind] += n * sender_B * (
                        fan_in if kind == "GATHER" else 1)
                sent["MULTICAST"] += s.instructions["BCAST_CXL"] * WORD_B
                sent["GATHER"] += s.instructions["SEND_CXL"] * WORD_B
            assert recorded == sent, pos
            assert all(k[1] == len(cls.representative.tp_group) - 1
                       for s in roles for k in s.collectives)
        # per token: every collective and hand-off priced is sent
        traces = compiler.compile_token(model, plan, pos, layout=layout)
        prof = timesim._token_profile(layout, plan, arch, pos)
        assert prof.cxl == sum(t.summary.cxl_sent_B for t in traces), pos


def test_simulate_system_rejects_a_layout_built_for_another_config():
    plan = mapper.plan_pipeline(TINY, ARCH, 64, n_devices=2)
    layout = compiler.build_layout(TINY, plan, ARCH)
    other_model = dataclasses.replace(TINY, d_ff=4096)
    other_plan = mapper.plan_pipeline(TINY, ARCH, 64, n_devices=1)
    for args, field in (((other_model, plan, ARCH), "model"),
                        ((TINY, other_plan, ARCH), "plan"),
                        ((TINY, plan, ARCH4), "arch")):
        with pytest.raises(TimingError, match=f"built for another {field}"):
            simulate_system(*args, 0, 4, layout=layout)
    simulate_system(TINY, plan, ARCH, 0, 4, layout=layout)
