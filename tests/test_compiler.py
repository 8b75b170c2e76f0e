import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from cxlpim.config import (CONFIGS_DIR, LANE, ROW_SLOTS, WORD_B, ArchConfig,
                           ModelSpec, apply_overrides, load_config)
from cxlpim.isa import IsaError, make_instruction, rule_numbers, validate_trace
from cxlpim.mapper import plan_hybrid, plan_pipeline, plan_scaled, plan_tensor
from cxlpim import compiler
from cxlpim.compiler import (
    CompileError, CountSink, GemvJob, ListSink, TensorPlacement,
    build_layout, compile_token, emit_gemv,
)
from cxlpim.timesim import _token_profile, simulate_system

from lowering import lower, plain_emit_gemv, plain_lower_gate_up

ARCH = ArchConfig()

TOY = ModelSpec(name="toy", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=1, d_head=64, d_ff=688, max_context=64)
LLAMA_70B = ModelSpec(name="llama2-70b", n_layers=80, d_model=8192,
                      n_heads=64, n_kv_heads=8, d_head=128, d_ff=28672)
LLAMA_7B = ModelSpec(name="llama2-7b", n_layers=32, d_model=4096,
                     n_heads=32, n_kv_heads=32, d_head=128, d_ff=11008)
# toy-scale model whose FFN splits over tp=2 (the toy's d_ff=688 does not)
TINY = ModelSpec(name="tiny", n_layers=2, d_model=128, n_heads=2,
                 n_kv_heads=1, d_head=64, d_ff=2048, max_context=64)
# toy-scale model whose FFN splits over tp=4 with each device's down
# slice a full Global Buffer tile (TINY's d_ff=2048 packs it at tp=4)
TP4 = ModelSpec(name="tp4", n_layers=2, d_model=256, n_heads=4,
                n_kv_heads=1, d_head=64, d_ff=4096, max_context=64)


def gemv_placement(rows, cols, channels=(0,), base_row=0):
    return TensorPlacement(name="w", channels=tuple(channels),
                           rows=rows, cols=cols, base_row=base_row)


def gemv(rows, cols, vec_slot, out_base=1024):
    """The instructions of one GEMV on channel 0 of device 0."""
    job = GemvJob(gemv_placement(rows, cols), out_base)
    return lower(lambda em: emit_gemv(em, [job], ("SB", vec_slot),
                                      0)).instructions


def _emit(sink, inst, riscv_kind=None):
    """Emit a materialized instruction into `sink` as the lowering does."""
    sink.i(inst.opcode, *inst.operands, riscv_kind=riscv_kind,
           source_select=inst.source_select, copy_bank=inst.copy_bank,
           red_mode=inst.red_mode)


# ---------------------------------------------------------------------------
# GEMV lowering

def test_gemv_single_row_group_full_row():
    # 16 rows x 1024 cols on one channel: the whole vector fills one
    # 64-slot Global Buffer tile and each bank holds one full DRAM row
    insts = gemv(16, 1024, vec_slot=32)
    assert [i.opcode for i in insts] == [
        "WR_GB", "WR_BIAS", "MAC_ABK", "RD_MAC"]
    wr_gb, bias, mac, rd = insts
    assert wr_gb.OPsize == 64 and wr_gb.CO == 0
    assert mac.OPsize == 64 and mac.CO == 0 and mac.Regid == 0
    assert mac.source_select == "GB"
    assert rd.Regid == 0 and rd.Rd == 1024


def test_gemv_minimal_tile():
    insts = gemv(16, 16, vec_slot=0)
    macs = [i for i in insts if i.opcode == "MAC_ABK"]
    assert len(macs) == 1 and macs[0].OPsize == 1


def test_gemv_two_row_groups_distinct_regids():
    insts = gemv(32, 1024, vec_slot=32)
    macs = [i for i in insts if i.opcode == "MAC_ABK"]
    rds = [i for i in insts if i.opcode == "RD_MAC"]
    assert len(macs) == len(rds) == 2
    assert sorted(m.Regid for m in macs) == [0, 1]
    assert {m.RO for m in macs} == {0, 1}
    assert sum(1 for i in insts if i.opcode == "WR_BIAS") == 2
    # result slots hold row groups in logical order
    assert [(r.Regid, r.Rd) for r in rds] == [(0, 1024), (1, 1025)]


def test_gemv_register_spill():
    # 40 row groups on one channel exceed the 32 accumulation registers,
    # so the vector is re-streamed for a second register batch
    insts = gemv(640, 1024, vec_slot=32)
    assert sum(1 for i in insts if i.opcode == "WR_GB") == 2
    macs = [i for i in insts if i.opcode == "MAC_ABK"]
    assert [m.Regid for m in macs] == list(range(32)) + list(range(8))


def test_gemv_multi_tile_input():
    # 2048 cols = two Global Buffer tiles; accumulators carry across
    # tiles so WR_BIAS appears once per row group
    insts = gemv(16, 2048, vec_slot=0)
    assert sum(1 for i in insts if i.opcode == "WR_GB") == 2
    assert sum(1 for i in insts if i.opcode == "WR_BIAS") == 1
    assert sum(1 for i in insts if i.opcode == "MAC_ABK") == 2
    assert sum(1 for i in insts if i.opcode == "RD_MAC") == 1


def test_gemv_packed_rows_replicate_input():
    # two 8-slot runs share a DRAM row: the Global Buffer holds the
    # vector twice so the second run reads its copy at CO=8
    insts = gemv(32, 128, vec_slot=0)
    wr = [i for i in insts if i.opcode == "WR_GB"]
    assert [w.CO for w in wr] == [0, 8]
    macs = [i for i in insts if i.opcode == "MAC_ABK"]
    assert [(m.RO, m.CO) for m in macs] == [(0, 0), (0, 8)]


def test_gemv_shape_mismatch_rejected():
    # fused jobs stream one input: a 2048-wide matrix cannot share the
    # Global Buffer tiles of a 1024-wide one
    jobs = [GemvJob(gemv_placement(16, 1024), 1024),
            GemvJob(gemv_placement(16, 2048), 1040)]
    with pytest.raises(CompileError, match="fused GEMV jobs must share "
                                           "layout"):
        lower(lambda em: emit_gemv(em, jobs, ("SB", 0), 0))


def test_gemv_bank_streamed_input_cannot_pack():
    pl = gemv_placement(16, 16)   # runs_per_row = 64
    sink = ListSink(0, ARCH)
    with pytest.raises(CompileError, match="packed matrix rows"):
        emit_gemv(sink, [GemvJob(pl, 1024)], ("BK", 0), 0)


def test_placement_ragged_groups_rejected():
    with pytest.raises(CompileError, match="ragged"):
        gemv_placement(17, 1024, channels=(0, 1))


def test_placement_element_locations_disjoint_and_complete():
    pl = gemv_placement(48, 2048, channels=(0, 1))
    seen = set()
    for r in range(pl.rows):
        for c in range(pl.cols):
            loc = pl.element_loc(r, c)
            ch, bank, row, col, lane = loc
            assert ch in pl.channels and 0 <= bank < 16
            assert 0 <= col < 64 and 0 <= lane < 16
            assert loc not in seen
            seen.add(loc)
    assert len(seen) == pl.rows * pl.cols


# ---------------------------------------------------------------------------
# operator lowerings over a real layout

@pytest.fixture(scope="module")
def toy_layout():
    plan = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=1)
    return plan, build_layout(TOY, plan, ARCH)


def test_rmsnorm_uses_neighbor_bank_dot(toy_layout):
    _, layout = toy_layout
    insts = lower(lambda low: low.rmsnorm("w_rms1"), layout).instructions
    macs = [i for i in insts if i.opcode == "MAC_ABK"]
    assert macs and macs[0].source_select == "BANK"
    assert any(i.opcode == "RED" for i in insts)
    assert any(i.opcode == "EW_MUL" for i in insts)


def test_rmsnorm_bad_width_rejected():
    # a hidden width that is not whole 16-row groups cannot be laid out
    model = dataclasses.replace(TOY, d_model=248, d_head=62)
    plan = plan_pipeline(model, ARCH, model.max_context, n_devices=1)
    with pytest.raises(CompileError,
                       match="rows not divisible .* in 16-row groups"):
        build_layout(model, plan, ARCH)


def test_rope_complex_groups(toy_layout):
    _, layout = toy_layout
    insts = lower(lambda low: low.rope(layout.sb.qkv, 1), layout,
                  position=5).instructions
    # 64-wide head = 32 complex pairs = 4 Shared Buffer slots per bank
    ew = [i for i in insts if i.opcode == "EW_MUL"]
    assert len(ew) == 1 and ew[0].OPsize == 4
    assert any(i.opcode == "RISCV" for i in insts)


def test_rope_odd_head_rejected():
    # an odd head width has no complex pairs and is not whole row groups
    model = dataclasses.replace(TOY, d_model=252, d_head=63)
    plan = plan_pipeline(model, ARCH, model.max_context, n_devices=1)
    with pytest.raises(CompileError,
                       match="rows not divisible .* in 16-row groups"):
        build_layout(model, plan, ARCH)


def attention(layout, context_len):
    """The Q/K/V projections, attention core and O projection of block
    0 for a context of `context_len` tokens."""
    def emit(low):
        low.qkv()
        low.attention_core()
        low.o_proj()
    return lower(emit, layout, position=context_len - 1).instructions


def test_attention_first_token(toy_layout):
    _, layout = toy_layout
    insts = attention(layout, 1)
    ops = {i.opcode for i in insts}
    assert {"WR_SBK", "WR_ABK", "MAC_ABK", "EXP", "RD_MAC"} <= ops
    # V append lands one lane per dimension slot via WR_ABK
    wr_abk = [i for i in insts if i.opcode == "WR_ABK"]
    assert len(wr_abk) == TOY.n_kv_heads * (TOY.d_head // 16)


def test_attention_gqa_one_score_pass_per_query_head(toy_layout):
    _, layout = toy_layout
    insts = attention(layout, 16)
    exp = [i for i in insts if i.opcode == "EXP"]
    assert len(exp) == TOY.n_heads     # 4 query heads share 1 KV head
    # each head drains its accumulators into its own output slots, right
    # after its own score pass (the rms region holds the head outputs)
    sb, dh = layout.sb, TOY.d_head // 16
    drains, n_exp = [], 0
    for i in insts:
        if i.opcode == "EXP":
            n_exp += 1
        elif i.opcode == "RD_MAC" and sb.rms <= i.Rd < sb.qkv:
            drains.append((n_exp, i.Rd, i.Regid))
    assert drains == [(h + 1, sb.rms + h * dh + g, g)
                      for h in range(TOY.n_heads) for g in range(dh)]


def test_attention_context_bounds(toy_layout):
    # the last position's K row and V lanes land in the last rows each
    # KV cache placement reserves, never past them
    mid, _ = load_config(CONFIGS_DIR / "mid.json")
    mid_plan = plan_pipeline(mid, ARCH, mid.max_context, n_devices=1)
    for model, layout in ((TOY, toy_layout[1]),
                          (mid, build_layout(mid, mid_plan, ARCH))):
        pos = model.max_context - 1
        insts = lower(lambda low: low.attention_core(), layout,
                      position=pos).instructions
        kvs = layout.blocks[0].kv
        dh = kvs[0].dh_slots
        # each KV head appends one K row (WR_SBK), then dh V lanes
        appends = [k for k, i in enumerate(insts) if i.opcode == "WR_ABK"
                   and insts[k - 1].opcode == "WR_SBK"]
        assert len(appends) == len(kvs) == model.n_kv_heads
        for kv, k in zip(kvs, appends):
            wk = insts[k - 1]
            assert wk.Rs == layout.sb.kv_new + kv.kv_head * dh
            assert wk.CHid == kv.channel
            assert wk.RO == kv.k_base_row + kv.k_rows_needed() - 1
            assert wk.CO + wk.OPsize <= ROW_SLOTS
            vs = insts[k:k + dh]
            assert all(v.opcode == "WR_ABK" and v.CHid == kv.channel
                       for v in vs)
            assert {v.RO - kv.v_base_row for v in vs} == {
                (g + 1) * kv.v_rows_per_group - 1 for g in range(dh)}
            assert max(v.RO for v in vs) < kv.v_base_row + kv.v_rows_needed()
        assert sum(i.opcode == "WR_ABK" for i in insts) == len(kvs) * dh
        with pytest.raises(CompileError, match="beyond max context"):
            compiler.check_position(model, model.max_context)


# ---------------------------------------------------------------------------
# whole-token compilation

@pytest.fixture(scope="module")
def toy_traces(toy_layout):
    plan, layout = toy_layout
    return compile_token(TOY, plan, token_pos=20, layout=layout)


def test_token_traces_validate(toy_traces):
    trace = {t.device: t.instructions for t in toy_traces}
    report = validate_trace(trace, ARCH)
    assert report.well_formed, [f.message for f in report.findings]


def test_single_device_has_no_cxl(toy_traces):
    assert len(toy_traces) == 1
    t = toy_traces[0]
    assert not any(i.opcode.endswith("_CXL") for i in t.instructions)
    assert t.summary.cxl_sent_B == 0


def test_operator_coverage(toy_traces):
    ops = toy_traces[0].summary.operators
    assert ops["rmsnorm"] == 2 * TOY.n_layers
    assert ops["attention"] == TOY.n_layers
    assert ops["ffn"] == TOY.n_layers


def test_annotations_partition_trace(toy_traces):
    t = toy_traces[0]
    spans = sorted(
        (s, e) for name, s, e in t.annotations
        if name in ("rmsnorm", "attention", "ffn"))
    assert spans[0][0] == 0 and spans[-1][1] == len(t.instructions)
    for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
        assert e0 == s1 and s0 < e0


def test_ffn_applies_silu(toy_traces):
    afs = [i for i in toy_traces[0].instructions if i.opcode == "AF"]
    assert afs and all(i.AFid == compiler.SILU for i in afs)


def test_block_summaries_match_list_mode():
    # the counting path (one summary per structure class, reused for
    # every block of the class, plus the hidden-state hand-offs that
    # timing prices from compiler.handoffs) counts what the
    # materialized token trace holds
    for n_devices in (1, 2):
        plan = plan_pipeline(TOY, ARCH, TOY.max_context,
                             n_devices=n_devices)
        layout = build_layout(TOY, plan, ARCH)
        classes = {compiler._structure_key(c.representative): c
                   for c in compiler.block_summaries(TOY, plan, ARCH, 20,
                                                     layout)}
        counted: dict = {}
        for bl in layout.blocks:
            cls = classes[compiler._structure_key(bl)]
            for di, dev in enumerate(bl.tp_group):
                rep = cls.representative
                chan_map = dict(zip(rep.assignment.channels[di],
                                    bl.assignment.channels[di]))
                counted.setdefault(dev, compiler.TraceSummary()).merge(
                    cls.device_summaries[di], chan_map=chan_map)
        masters = {(bl.replica, bl.block): bl.master for bl in layout.blocks}
        n = compiler.slots_of(TOY.d_model)
        for receiver, sender in compiler.handoffs(layout).items():
            src, dst = counted[sender], counted[masters[receiver]]
            src.instructions["SEND_CXL"] += n
            src.microops["SEND_CXL"] += n
            src.cxl_sent_B += n * WORD_B
            dst.instructions["RECV_CXL"] += n
            dst.microops["RECV_CXL"] += n
        listed = compile_token(TOY, plan, 20, layout=layout)
        assert {t.device: t.summary.to_dict() for t in listed} == {
            dev: s.to_dict() for dev, s in counted.items()}


@pytest.mark.parametrize("model, plan_of", [
    (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=1)),
    (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=2)),
    (TP4, lambda: plan_hybrid(TP4, ARCH, tp=4, pp=1, context=64)),
    (TP4, lambda: plan_hybrid(TP4, ARCH, tp=4, pp=2, context=64)),
], ids=["1", "2", "tp4-hybrid-pp1", "tp4-hybrid-pp2"])
def test_token_summaries_recount_one_instruction_at_a_time(model, plan_of):
    # both sinks append the shared attention bodies and the pieces a
    # tensor-parallel group shares, so recount each materialized trace
    # by emitting its instructions one by one. Operators and collectives
    # are recorded by the lowering, not read from instructions, so they
    # are replayed from the trace (test_priced_cxl_bytes_equal_trace_sends
    # checks the collectives against the CXL instructions)
    plan = plan_of()
    layout = build_layout(model, plan, ARCH)
    for pos in (0, 15, 16, 20, 40, 63):
        for t in compile_token(model, plan, pos, layout=layout):
            sink = CountSink(t.device, ARCH)
            for name, _, _ in t.annotations:
                sink.begin_op(name)
            for key, n in t.summary.collectives.items():
                for _ in range(n):
                    sink.collective(*key)
            for inst in t.instructions:
                kind = (t.routines[inst.PC][0] if inst.opcode == "RISCV"
                        else None)
                _emit(sink, inst, riscv_kind=kind)
            assert sink.finish().to_dict() == t.summary.to_dict(), pos


def test_decode_positions_same_structure(toy_layout):
    # positions 20 and 21 fall in the same 16-token score group, so the
    # traces differ only in attention OPsizes, not instruction counts
    plan, layout = toy_layout
    a = compile_token(TOY, plan, 20, layout=layout)[0]
    b = compile_token(TOY, plan, 21, layout=layout)[0]
    assert a.summary.instructions == b.summary.instructions
    assert [i.opcode for i in a.instructions] == [
        i.opcode for i in b.instructions]


def test_prefill_uses_decode_path(toy_layout):
    # a prefill token is priced as the decode token at its position
    plan, layout = toy_layout
    rep = simulate_system(TOY, plan, ARCH, prefill_tokens=8,
                          decode_tokens=4, seq_gap=1, layout=layout)
    expect = 0.0
    for pos in range(8):
        expect += _token_profile(layout, plan, ARCH, pos).token_ns
    assert rep.prefill_ns == expect


def test_position_beyond_context_rejected(toy_layout):
    plan, layout = toy_layout
    with pytest.raises(CompileError, match="beyond max context"):
        compile_token(TOY, plan, TOY.max_context, layout=layout)


@pytest.mark.parametrize("pos", [-1, TOY.max_context])
def test_positions_outside_kv_cache_rejected(toy_layout, pos):
    plan, layout = toy_layout
    with pytest.raises(CompileError, match="negative|beyond max context"):
        compile_token(TOY, plan, pos, layout=layout)
    with pytest.raises(CompileError, match="negative|beyond max context"):
        compiler.block_summaries(TOY, plan, layout.arch, pos, layout)


def test_pipeline_boundary_handoff():
    plan = plan_pipeline(TOY, ARCH, TOY.max_context, n_devices=2)
    traces = compile_token(TOY, plan, 10)
    by_dev = {t.device: t for t in traces}
    slots = TOY.d_model // 16
    assert by_dev[0].summary.instructions["SEND_CXL"] == slots
    assert by_dev[1].summary.instructions["RECV_CXL"] == slots
    assert by_dev[0].summary.cxl_sent_B == slots * WORD_B
    trace = {t.device: t.instructions for t in traces}
    assert validate_trace(trace, ARCH).well_formed


# ---------------------------------------------------------------------------
# full-model scale

@pytest.fixture(scope="module")
def plan_70b():
    return plan_pipeline(LLAMA_70B, ARCH, 4096)


def test_mac_dominance_70b(plan_70b):
    total = compiler.TraceSummary()
    for cls in compiler.block_summaries(LLAMA_70B, plan_70b, ARCH, 4095):
        for s in cls.device_summaries.values():
            total.merge(s, factor=cls.count)
    assert total.mac_fraction() >= 0.99


def test_70b_boundary_traffic(plan_70b):
    # the compiler hands the hidden state on wherever consecutive blocks
    # change master (compiler.handoffs, which timing prices too)
    layout = build_layout(LLAMA_70B, plan_70b, ARCH)
    chain = sorted(layout.blocks, key=lambda bl: bl.block)   # one replica
    hops = sum(nxt.master != bl.master for bl, nxt in zip(chain, chain[1:]))
    senders = compiler.handoffs(layout)
    assert len(senders) == hops
    assert all(src == layout.blocks[blk].master - 1
               for (_, blk), src in senders.items())
    sent = hops * compiler.slots_of(LLAMA_70B.d_model) * WORD_B
    # 26 stage boundaries x 16 KB hidden vector
    assert sent == 26 * 16 * 1024


def test_tensor_parallel_compiles_and_gathers():
    plan = plan_tensor(LLAMA_70B, ARCH, 4096)
    layout = build_layout(LLAMA_70B, plan, ARCH)
    classes = compiler.block_summaries(LLAMA_70B, plan, ARCH, 100, layout)
    assert sum(c.count for c in classes) == LLAMA_70B.n_layers
    s = compiler.TraceSummary()
    for c in classes:
        for d in c.device_summaries.values():
            s.merge(d)
    assert s.instructions["BCAST_CXL"] > 0
    assert s.instructions["SEND_CXL"] > 0
    assert s.cxl_sent_B > 0
    # the master leads five broadcasts of the 16 KB normed input and
    # gathers each non-master's share: 512 B of q and of o, 64 B of k
    # and of v, and the whole 16 KB down partial, 17,536 B per sender
    (cls,) = classes
    assert cls.device_summaries[0].collectives == {
        ("MULTICAST", 31, 16384): 5, ("GATHER", 31, 512): 2,
        ("GATHER", 31, 64): 2, ("GATHER", 31, 16384): 1}
    assert {cls.device_summaries[di].cxl_sent_B
            for di in range(1, 32)} == {17536}


# ---------------------------------------------------------------------------
# operand checks in the sinks

@pytest.mark.parametrize("opcode, operands, flags", [
    ("MAC_AB", (1, 4, 0, 0, 0), {}),                       # unknown opcode
    ("MAC_ABK", (1, 4, 0, 0), {}),                         # operand count
    ("MAC_ABK", (1, 4, ARCH.rows_per_bank, 0, 0), {}),     # RO
    ("RD_MAC", (0, 40, 0), {}),                            # empty CHmask
    ("WR_GB", (1, 1, ROW_SLOTS, 0), {}),                   # GB slot
    ("RED", (4, 0, 8), {"red_mode": "MIN"}),
    ("MAC_ABK", (1, 4, 0, 0, 0), {"source_select": "DRAM"}),
    ("MAC_ABK", (1, 10, 0, 60, 0), {}),                    # past the row
    ("WR_SBK", (0, 8, 0, 0, 60, 0), {}),
    ("WR_GB", (1, 65, 0, 0), {}),                          # past the GB
    ("EXP", (8, 0, ARCH.sb_slots - 4), {}),                # past the SB
])
def test_sinks_reject_malformed_operands_like_make_instruction(
        opcode, operands, flags):
    with pytest.raises(IsaError) as built:
        make_instruction(opcode, *operands, cfg=ARCH, **flags)
    for cls in (CountSink, ListSink):
        sink = cls(0, ARCH)
        _emit(sink, make_instruction("MAC_ABK", 1, 4, 5, 0, 0))
        before = sink.summary.to_dict()
        with pytest.raises(IsaError) as emitted:
            sink.i(opcode, *operands, **flags)
        assert str(emitted.value) == str(built.value), cls
        assert sink.summary.to_dict() == before, cls
        assert sink._open == {0: [5, 4]}, cls


# ---------------------------------------------------------------------------
# composing counting summaries

def _mac(ch, row, cols):
    return make_instruction("MAC_ABK", 1 << ch, cols, row, 0, 0)


def _composed_and_whole(segments):
    """Summaries of `segments` counted apart and joined with append, and
    of the same instructions emitted into one sink."""
    whole, composed = CountSink(0, ARCH), CountSink(0, ARCH)
    for seg in segments:
        part = CountSink(0, ARCH)
        for inst in seg:
            _emit(whole, inst)
            _emit(part, inst)
        composed.append(part)
    return composed.finish(), whole.finish()


@pytest.mark.parametrize("segments, hists", [
    # same row across the boundary: the two brackets are one
    ([[_mac(0, 5, 4), _mac(0, 6, 4)], [_mac(0, 6, 8), _mac(0, 7, 2)]],
     {0: {4: 1, 12: 1, 2: 1}}),
    # different row: the open bracket closes at the boundary
    ([[_mac(0, 5, 4), _mac(0, 6, 4)], [_mac(0, 7, 8), _mac(0, 7, 1)]],
     {0: {4: 2, 9: 1}}),
    # a middle segment that never touches channel 0 leaves it open
    ([[_mac(0, 5, 4)], [_mac(1, 9, 4), _mac(1, 3, 2)], [_mac(0, 5, 4)]],
     {0: {8: 1}, 1: {4: 1, 2: 1}}),
    # single-bracket segments continue and are continued
    ([[_mac(0, 5, 4)], [_mac(0, 5, 2), _mac(0, 5, 2)], [_mac(0, 5, 1)]],
     {0: {9: 1}}),
    ([[_mac(0, 5, 4)], [_mac(0, 6, 2)], [_mac(0, 7, 1)]],
     {0: {4: 1, 2: 1, 1: 1}}),
    # empty segments, including the first, change nothing
    ([[], [_mac(0, 5, 4)], [], [_mac(0, 5, 4)], []], {0: {8: 1}}),
    ([[], []], {}),
])
def test_append_composes_segments_exactly(segments, hists):
    composed, whole = _composed_and_whole(segments)
    assert composed.to_dict() == whole.to_dict()
    assert {ch: dict(st.bracket_hist)
            for ch, st in composed.channels.items()} == hists


def test_append_counts_every_activity_field():
    wr_gb = make_instruction("WR_GB", 0b11, 8, 0, 0)
    rd = make_instruction("RD_MAC", 0b10, 40, 0)
    composed, whole = _composed_and_whole(
        [[wr_gb, _mac(0, 5, 8)], [_mac(1, 2, 8), rd], [_mac(0, 5, 8), wr_gb]])
    assert composed.to_dict() == whole.to_dict()
    assert composed.channels[0].wr_gb == 16
    assert composed.channels[1].rd_mac == 1


def test_append_leaves_segment_reusable():
    # the same unfinished sinks appended into two sinks, each time
    # opening or continuing a bracket that later instructions extend
    segs = {"part": [_mac(0, 5, 4), _mac(0, 6, 4)], "single": [_mac(0, 6, 2)]}
    parts = {}
    for name, insts in segs.items():
        parts[name] = CountSink(0, ARCH)
        for inst in insts:
            _emit(parts[name], inst)
    stream = ["single", _mac(0, 6, 1), "part", "single", _mac(0, 9, 1),
              "single", _mac(0, 6, 1), "part"]
    whole = CountSink(0, ARCH)
    for x in stream:
        for inst in segs[x] if isinstance(x, str) else [x]:
            _emit(whole, inst)
    expected = whole.finish().to_dict()
    for _ in range(2):
        sink = CountSink(0, ARCH)
        for x in stream:
            if isinstance(x, str):
                sink.append(parts[x])
            else:
                _emit(sink, x)
        assert sink.finish().to_dict() == expected


# ---------------------------------------------------------------------------
# appending a segment with its channel renamed

def _wr_bias(ch):
    return make_instruction("WR_BIAS", 1 << ch, 0)


def _run(ch, steps):
    """One channel's run as the GEMV lowering emits it: per step an
    optional WR_BIAS, then a MAC_ABK of `cols` columns of `row`."""
    out = []
    for bias, row, cols in steps:
        if bias:
            out.append(_wr_bias(ch))
        out.append(_mac(ch, row, cols))
    return out


_CH, _ROW, _COLS = st.integers(0, 3), st.integers(5, 7), st.integers(1, 8)
_MACS = st.lists(st.tuples(_CH, _ROW, _COLS), max_size=5)


@settings(max_examples=150, deadline=None)
@given(prefix=_MACS, steps=st.lists(st.tuples(st.booleans(), _ROW, _COLS),
                                    max_size=5),
       src=_CH, dst=_CH, suffix=_MACS)
# the target's open bracket is continued across the rename
@example(prefix=[(2, 5, 4)], steps=[(True, 5, 2), (False, 6, 1)], src=0,
         dst=2, suffix=[(2, 6, 3)])
# the target is open at another row; the source is open here too and
# must stay as it is
@example(prefix=[(0, 6, 4), (2, 7, 1)], steps=[(True, 5, 2), (True, 5, 2)],
         src=0, dst=2, suffix=[(0, 6, 1), (2, 5, 1)])
# a one-bracket run onto a channel this sink has not touched
@example(prefix=[(1, 5, 1)], steps=[(False, 7, 8)], src=1, dst=3,
         suffix=[(3, 7, 1)])
def test_append_renamed_equals_emitting_the_renamed_run(prefix, steps, src,
                                                       dst, suffix):
    for cls in (CountSink, ListSink):
        seg = cls(0, ARCH)
        for inst in _run(src, steps):
            _emit(seg, inst)
        kept = (seg.summary.to_dict(), dict(seg._first), dict(seg._open))
        direct, renamed = cls(0, ARCH), cls(0, ARCH)
        for sink in (direct, renamed):
            for ch, row, cols in prefix:
                _emit(sink, _mac(ch, row, cols))
        for inst in _run(dst, steps):
            _emit(direct, inst)
        renamed.append(seg, {src: dst})
        assert (seg.summary.to_dict(), seg._first, seg._open) == kept
        for sink in (direct, renamed):
            for ch, row, cols in suffix:
                _emit(sink, _mac(ch, row, cols))
        # unfinished, the two are the same segment for a later append
        assert renamed._first == direct._first, cls
        assert renamed._open == direct._open, cls
        if cls is ListSink:
            assert renamed.instructions == direct.instructions
        assert renamed.finish().to_dict() == direct.finish().to_dict(), cls


@pytest.mark.parametrize("bad", [ARCH.channels_per_device, 40])
@pytest.mark.parametrize("first", ["WR_BIAS", "MAC_ABK"])
def test_renamed_append_rejects_a_target_as_emitting_on_it_would(first, bad):
    run = [_wr_bias(1), _mac(1, 5, 4)]
    if first == "MAC_ABK":
        run.reverse()
    for cls in (CountSink, ListSink):
        seg = cls(0, ARCH)
        for inst in run:
            _emit(seg, inst)
        with pytest.raises(IsaError) as emitted:
            cls(0, ARCH).i(first, 1 << bad, *run[0].operands[1:])
        sink = cls(0, ARCH)
        _emit(sink, _mac(0, 5, 4))
        before = sink.summary.to_dict()
        with pytest.raises(IsaError) as appended:
            sink.append(seg, {1: bad})
        assert str(appended.value) == str(emitted.value), cls
        assert str(emitted.value).startswith(f"{first}: operand CHmask=")
        assert sink.summary.to_dict() == before, cls
        assert sink._open == {0: [5, 4]}, cls
        assert len(getattr(sink, "instructions", [None])) == 1, cls


def _listed(traces) -> dict:
    return {t.device: (t.instructions, t.annotations, t.routines,
                       t.summary.to_dict()) for t in traces}


def _per_channel_emitters(monkeypatch):
    monkeypatch.setattr(compiler, "emit_gemv", plain_emit_gemv)
    monkeypatch.setattr(compiler.BlockLowering, "_lower_gate_up",
                        plain_lower_gate_up)


MID, _ = load_config(CONFIGS_DIR / "mid.json")


@pytest.mark.parametrize("model, plan_of, pos", [
    # d_ff 688 is 43 row groups: ragged classes over 32 channels
    (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=1), 63),
    (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=2), 17),
    (MID, lambda: plan_pipeline(MID, ARCH, 2048, n_devices=1), 1000),
    (TP4, lambda: plan_hybrid(TP4, ARCH, tp=4, pp=1, context=64), 30),
], ids=["toy-1", "toy-2", "mid", "tp4"])
def test_class_lowering_lists_and_counts_the_per_channel_stream(
        monkeypatch, model, plan_of, pos):
    plan = plan_of()
    got = (_listed(compile_token(model, plan, pos)),
           _class_dicts(compiler.block_summaries(model, plan, ARCH, pos)))
    _per_channel_emitters(monkeypatch)
    assert got == (_listed(compile_token(model, plan, pos)),
                   _class_dicts(compiler.block_summaries(model, plan, ARCH,
                                                         pos)))


def test_class_lowering_lists_the_per_channel_stream_of_a_70b_block(
        monkeypatch):
    plan = plan_pipeline(LLAMA_70B, ARCH, 4096)
    layout = build_layout(LLAMA_70B, plan, ARCH)

    def listed():
        trace = lower(lambda low: (low.before_core(), low.after_core()),
                      layout, block=1)
        return trace.instructions, trace.annotations, trace.summary.to_dict()
    got = listed()
    _per_channel_emitters(monkeypatch)
    assert got == listed()


def _sequential_summaries(layout, bl, pos):
    """Per-role summaries of one block lowered whole into CountSinks."""
    sinks = {d: CountSink(d, ARCH) for d in bl.tp_group}
    compiler._compile_block(layout, bl, pos, sinks)
    return {di: sinks[d].finish().to_dict()
            for di, d in enumerate(bl.tp_group)}


@pytest.mark.parametrize("model, plan_of, positions", [
    (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=1), range(64)),
    (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=2), range(64)),
    (TINY, lambda: plan_hybrid(TINY, ARCH, tp=2, pp=2, context=64),
     range(64)),
    (TP4, lambda: plan_hybrid(TP4, ARCH, tp=4, pp=1, context=64),
     range(64)),
    (TP4, lambda: plan_hybrid(TP4, ARCH, tp=4, pp=2, context=64),
     range(64)),
    (LLAMA_7B, lambda: plan_pipeline(LLAMA_7B, ARCH, 4096, n_devices=8),
     (17, 4095)),
], ids=["toy-pp1", "toy-pp2", "tiny-hybrid-tp2", "tp4-hybrid-pp1",
        "tp4-hybrid-pp2", "7b-pp"])
def test_block_summaries_equal_sequential_lowering(model, plan_of, positions):
    plan = plan_of()
    warm_layout = build_layout(model, plan, ARCH)
    for pos in positions:
        cold_layout = build_layout(model, plan, ARCH)
        cold = compiler.block_summaries(model, plan, ARCH, pos, cold_layout)
        warm = compiler.block_summaries(model, plan, ARCH, pos, warm_layout)
        assert len(warm_layout.invariant_segments) == len(warm)
        for classes, layout in ((cold, cold_layout), (warm, warm_layout)):
            for cls in classes:
                got = {di: s.to_dict()
                       for di, s in cls.device_summaries.items()}
                assert got == _sequential_summaries(
                    layout, cls.representative, pos), (pos, cls.count)


def test_block_summaries_returns_fresh_objects():
    plan = plan_hybrid(TINY, ARCH, tp=2, pp=1, context=64)
    layout = build_layout(TINY, plan, ARCH)
    first = compiler.block_summaries(TINY, plan, ARCH, 30, layout)
    expected = [{di: s.to_dict() for di, s in c.device_summaries.items()}
                for c in first]
    for cls in first:
        for s in cls.device_summaries.values():
            s.merge(s)
            s.instructions["MAC_ABK"] += 1
            for st in s.channels.values():
                st.bracket_hist[3] += 1
                st.wr_gb += 1
    again = compiler.block_summaries(TINY, plan, ARCH, 30, layout)
    assert [{di: s.to_dict() for di, s in c.device_summaries.items()}
            for c in again] == expected


def test_block_summaries_reject_a_layout_built_for_another_config():
    plan = plan_pipeline(TOY, ARCH, 64, n_devices=1)
    layout = build_layout(TOY, plan, ARCH)
    other_model = dataclasses.replace(TOY, d_ff=1376)
    other_plan = plan_pipeline(TOY, ARCH, 64, n_devices=2)
    other_arch = ArchConfig(n_devices=16)
    for args, field in (((other_model, plan, ARCH), "model"),
                        ((TOY, other_plan, ARCH), "plan"),
                        ((TOY, plan, other_arch), "arch")):
        with pytest.raises(CompileError,
                           match=f"built for another {field}"):
            compiler.block_summaries(*args, 20, layout)
    assert compiler.layout_mismatch(layout, TOY, plan, ARCH) is None
    # an equal plan built anew is the same configuration
    again = plan_pipeline(TOY, ARCH, 64, n_devices=1)
    assert compiler.layout_mismatch(layout, TOY, again, ARCH) is None


# ---------------------------------------------------------------------------
# pieces shared across a tensor-parallel group

def _lower_each_device_alone(self, dev, key, lower):
    lower(self.sinks[dev])


def _perturbed_tp4_layout(plan):
    """A tp=4 layout in which non-master devices differ from the first
    non-master in one field a shared piece reads: in even blocks the
    third device in its FFN triple row and the fourth in every weight
    base row, in odd blocks the third in its gated staging row."""
    layout = build_layout(TP4, plan, ARCH)
    for bl in layout.blocks:
        _, first, third, fourth = bl.tp_group
        assert bl.ewmul_row[third] == bl.ewmul_row[first]
        if bl.block % 2:
            bl.gated_scratch_row[third] += 1
            continue
        bl.ewmul_row[third] += 1
        for by_dev in bl.placements.values():
            if fourth in by_dev:
                # devices may share one placement object: give the
                # fourth its own, so only it moves
                by_dev[fourth] = dataclasses.replace(
                    by_dev[fourth], base_row=by_dev[fourth].base_row + 1)
                assert by_dev[fourth].base_row != by_dev[first].base_row
    return layout


@pytest.mark.parametrize("pp", (1, 2))
def test_shared_device_pieces_equal_lowering_each_device(monkeypatch, pp):
    # a piece lowered once and appended to several devices must equal
    # what each device lowers for itself, also where devices differ in
    # a single field the piece reads
    plan = plan_hybrid(TP4, ARCH, tp=4, pp=pp, context=64)
    cases = [build_layout(TP4, plan, ARCH), _perturbed_tp4_layout(plan)]

    def lowered(layout, pos):
        traces = compile_token(TP4, plan, pos, layout=layout)
        return ({t.device: (t.instructions, t.annotations, t.routines,
                            t.summary.to_dict()) for t in traces},
                [{di: s.to_dict() for di, s in c.device_summaries.items()}
                 for c in compiler.block_summaries(TP4, plan, ARCH, pos,
                                                   layout)])

    shared = [[lowered(layout, pos) for pos in (0, 40)] for layout in cases]
    monkeypatch.setattr(compiler.BlockLowering, "_shared",
                        _lower_each_device_alone)
    for layout, got in zip(cases, shared):
        layout.invariant_segments.clear()
        layout.segment_cache.clear()
        assert got == [lowered(layout, pos) for pos in (0, 40)]


# ---------------------------------------------------------------------------
# position-invariant segments shared by the layouts of a sweep

LLAMA_13B, _ = load_config(CONFIGS_DIR / "llama2_13b.json")


def _class_dicts(classes) -> list:
    return [{di: s.to_dict() for di, s in c.device_summaries.items()}
            for c in classes]


def _fresh_class_dicts(model, plan, arch, pos) -> list:
    """The class summaries of a layout that lowers every segment itself."""
    return _class_dicts(compiler.block_summaries(model, plan, arch, pos))


SCAN = {
    "toy-pp1": (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=1)),
    "toy-pp2": (TOY, lambda: plan_pipeline(TOY, ARCH, 64, n_devices=2)),
    "7b-pp8": (LLAMA_7B,
               lambda: plan_pipeline(LLAMA_7B, ARCH, 4096, n_devices=8)),
    "7b-pp32": (LLAMA_7B, lambda: plan_pipeline(LLAMA_7B, ARCH, 4096)),
    "7b-scaled64": (LLAMA_7B, lambda: plan_scaled(LLAMA_7B, ARCH, 64)),
    "7b-tp2": (LLAMA_7B, lambda: plan_hybrid(LLAMA_7B, ARCH, tp=2, pp=16,
                                             context=4096)),
    "7b-tp4": (LLAMA_7B, lambda: plan_hybrid(LLAMA_7B, ARCH, tp=4, pp=8,
                                             context=4096)),
    "7b-tp8": (LLAMA_7B, lambda: plan_hybrid(LLAMA_7B, ARCH, tp=8, pp=4,
                                             context=4096)),
    "13b-tp2": (LLAMA_13B, lambda: plan_hybrid(LLAMA_13B, ARCH, tp=2, pp=10,
                                               context=4096)),
    "13b-tp8": (LLAMA_13B, lambda: plan_hybrid(LLAMA_13B, ARCH, tp=8, pp=4,
                                               context=4096)),
    "13b-pp20": (LLAMA_13B,
                 lambda: plan_pipeline(LLAMA_13B, ARCH, 4096, n_devices=20)),
    "13b-pp32": (LLAMA_13B, lambda: plan_pipeline(LLAMA_13B, ARCH, 4096)),
    "70b-pp32": (LLAMA_70B, lambda: plan_pipeline(LLAMA_70B, ARCH, 4096)),
    "70b-scaled16": (LLAMA_70B,
                     lambda: plan_scaled(LLAMA_70B, ARCH, 16, context=2048)),
    "70b-scaled32": (LLAMA_70B,
                     lambda: plan_scaled(LLAMA_70B, ARCH, 32, context=2048)),
    "70b-scaled80": (LLAMA_70B,
                     lambda: plan_scaled(LLAMA_70B, ARCH, 80, context=2048)),
    "70b-scaled128": (LLAMA_70B, lambda: plan_scaled(LLAMA_70B, ARCH, 128,
                                                     context=2048)),
    "70b-tp2": (LLAMA_70B, lambda: plan_hybrid(LLAMA_70B, ARCH, tp=2, pp=16,
                                               context=4096)),
    "70b-tp4": (LLAMA_70B, lambda: plan_hybrid(LLAMA_70B, ARCH, tp=4, pp=8,
                                               context=4096)),
    "70b-tp8": (LLAMA_70B, lambda: plan_hybrid(LLAMA_70B, ARCH, tp=8, pp=4,
                                               context=4096)),
    "70b-tp": (LLAMA_70B, lambda: plan_tensor(LLAMA_70B, ARCH, 4096)),
}


def test_shared_segment_cache_equals_lowering_each_layout():
    # plans of one model whose classes share a block geometry share the
    # cached segments; every class still equals a fresh lowering
    cache, first_user = {}, {}
    for i, (name, (model, plan_of)) in enumerate(SCAN.items()):
        plan, pos = plan_of(), 7 * i % 64
        layout = build_layout(model, plan, ARCH, cache)
        classes = compiler.block_summaries(model, plan, ARCH, pos, layout)
        assert _class_dicts(classes) == _fresh_class_dicts(
            model, plan, ARCH, pos), name
        for segments in layout.invariant_segments.values():
            first_user.setdefault(id(segments), name)
    # the plans that lowered segments: every other 70B pipeline plan,
    # PP+DP fleets included, reuses the 32-device plan's one geometry,
    # and toy over two devices reuses toy over one
    lowering = set(first_user.values())
    assert len(first_user) == len(cache)
    assert lowering.isdisjoint({"toy-pp2", "70b-scaled16", "70b-scaled32",
                                "70b-scaled80", "70b-scaled128"})
    assert {"toy-pp1", "70b-pp32", "70b-tp"} <= lowering


def _numeric_fields(obj, prefix=""):
    """(dotted path, value) of every int or float field of a config
    tree, nested sections included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _numeric_fields(value, f"{prefix}{f.name}.")
        elif type(value) in (int, float):
            yield f"{prefix}{f.name}", value


def test_segment_cache_key_holds_exactly_the_arch_numbers_lowering_reads():
    # an arch that differs in a number the lowering reads must miss the
    # cache; one that differs in a timing, CXL, energy, cost or clock
    # number must hit it, and either way the summaries are the fresh
    # lowering's
    plan = plan_hybrid(TP4, ARCH, tp=4, pp=2, context=64)
    cache = {}
    compiler.block_summaries(TP4, plan, ARCH, 5,
                             build_layout(TP4, plan, ARCH, cache))
    fields = dict(_numeric_fields(ARCH))
    assert {"timing.tCL_ns", "cxl.base_latency_ns", "energy.p_host_W",
            "cost.production_volume", "bank_capacity_B"} <= fields.keys()
    for path, value in fields.items():
        new = value * 2 if type(value) is int else value * 1.25
        arch = apply_overrides(ARCH, {path: new})
        plan = plan_hybrid(TP4, arch, tp=4, pp=2, context=64)
        before = len(cache)
        got = compiler.block_summaries(TP4, plan, arch, 5,
                                       build_layout(TP4, plan, arch, cache))
        hit = len(cache) == before
        assert hit == (rule_numbers(arch) == rule_numbers(ARCH)), path
        assert _class_dicts(got) == _fresh_class_dicts(TP4, plan, arch,
                                                       5), path


def _fourth_base_row(layout):
    bl = layout.blocks[0]
    fourth = bl.tp_group[3]
    pl = bl.placements["gate"]
    pl[fourth] = dataclasses.replace(pl[fourth],
                                     base_row=pl[fourth].base_row + 1)
    return layout


def _kv_base_rows(layout):
    kv = layout.blocks[0].kv[0]
    kv.k_base_row += 1
    kv.v_base_row += 1
    return layout


@pytest.mark.parametrize("perturb", [
    lambda layout: _perturbed_tp4_layout(layout.plan),
    _fourth_base_row,
    _kv_base_rows,
], ids=["perturbed-tp4", "base-row", "kv"])
def test_segment_cache_misses_a_perturbed_block(perturb):
    plan = plan_hybrid(TP4, ARCH, tp=4, pp=1, context=64)
    cache = {}
    compiler.block_summaries(TP4, plan, ARCH, 5,
                             build_layout(TP4, plan, ARCH, cache))
    layout = perturb(build_layout(TP4, plan, ARCH))
    layout.segment_cache = cache
    got = _class_dicts(compiler.block_summaries(TP4, plan, ARCH, 5, layout))
    assert len(cache) == 2
    layout.invariant_segments.clear()
    layout.segment_cache = {}
    assert got == _class_dicts(compiler.block_summaries(TP4, plan, ARCH, 5,
                                                        layout))


def test_unknown_riscv_routine_rejected():
    with pytest.raises(CompileError, match="unknown RISC-V routine 'rsqrt'"):
        CountSink(0, ARCH).riscv("rsqrt", 1, 0, 0)


def _riscv_piece(sink):
    sink.riscv("scale", 1, 0, 0)


def test_shared_pieces_emit_no_riscv():
    # a piece's PCs index the routine table it was lowered with, so a
    # piece that emits RISCV may not be appended to another device
    plan = plan_hybrid(TP4, ARCH, tp=4, pp=1, context=64)
    layout = build_layout(TP4, plan, ARCH)

    def master_then_other(low):
        low._shared(low.master, ("riscv",), _riscv_piece)
        low._shared(low.bl.tp_group[1], ("riscv",), _riscv_piece)
    with pytest.raises(AssertionError):
        lower(master_then_other, layout)


def test_riscv_piece_appends_to_its_own_device():
    plan = plan_hybrid(TP4, ARCH, tp=4, pp=1, context=64)
    layout = build_layout(TP4, plan, ARCH)

    def twice_on_master(low):
        for _ in range(2):
            low._shared(low.master, ("riscv",), _riscv_piece)
    trace = lower(twice_on_master, layout)
    assert [(i.opcode, i.PC) for i in trace.instructions] == [
        ("RISCV", 0), ("RISCV", 0)]
    assert trace.routines == {0: ("scale", ())}
    assert trace.summary.riscv_slots == {"scale": 2}


def test_row_allocator_spans_channels_from_their_highest_free_row():
    alloc = compiler._RowAlloc(ARCH.rows_per_bank)
    assert alloc.take([0], (0,), 3) == [(0, [0])]
    assert alloc.take([0], (0, 1), 0) == [(3, [0])]   # a zero take writes nothing
    assert alloc.take([0], (1,), 2) == [(0, [0])]
    assert alloc.take([0], (0, 1), 4) == [(3, [0])]
    assert alloc.take([0], (1,), 1) == [(7, [0])]
    assert alloc.take([1], (0, 1), 1) == [(0, [1])]   # devices are independent
    # devices that have taken the same regions get one base row
    assert alloc.take([2, 3, 4], (0, 1), 2) == [(0, [2, 3, 4])]
    assert alloc.take([3], (0,), 5) == [(2, [3])]
    assert alloc.take([2, 3, 4], (0, 1), 1) == [(2, [2, 4]), (7, [3])]
    # one base row per history, in the order of each one's first device
    assert alloc.take([0, 1, 2, 3, 4], (1,), 1) == [
        (8, [0]), (1, [1]), (3, [2, 4]), (8, [3])]
    # a take on one device of a shared cursor leaves the others' rows
    assert alloc.take([2], (0, 1), 4) == [(4, [2])]
    assert alloc.take([4], (0, 1), 1) == [(4, [4])]
    with pytest.raises(CompileError, match="^device 0: DRAM rows exhausted"):
        alloc.take([0], (0,), ARCH.rows_per_bank)
    # the message names the device that ran out, not the first one asked
    with pytest.raises(CompileError, match="^device 0: DRAM rows exhausted"):
        alloc.take([1, 0], (0,), ARCH.rows_per_bank - 2)


def test_layout_rows_and_shared_placements_are_pinned(monkeypatch):
    """Sharing a placement among devices with one allocation history
    leaves every device's rows where a per-device allocator put them:
    the row past each device's highest region is pinned, as measured
    on that allocator."""
    highest: dict = {}
    take = compiler._RowAlloc.take

    def recording(self, devices, channels, n):
        got = take(self, devices, channels, n)
        for base, devs in got:
            for d in devs:
                highest[d] = max(highest.get(d, 0), base + n)
        return got
    monkeypatch.setattr(compiler._RowAlloc, "take", recording)
    fcs = ("q", "k", "v", "o", "gate", "up", "down")
    for plan, master_rows, other_rows in (
            (plan_tensor(LLAMA_70B, ARCH, 4096), 12359, 6402),
            (plan_hybrid(LLAMA_70B, ARCH, tp=4, pp=8, context=4096),
             5365, 4168)):
        highest.clear()
        layout = build_layout(LLAMA_70B, plan, ARCH)
        masters = {bl.master for bl in layout.blocks}
        assert highest == {d: master_rows if d in masters else other_rows
                           for d in range(32)}
        for bl in layout.blocks:
            for name in fcs:
                assert list(bl.placements[name]) == list(bl.tp_group)
                if plan.strategy == "TP":
                    assert len(set(map(id, bl.placements[name].values()))
                               ) <= 2
            # down's columns are stored in the order the gate pass on
            # the same device produces its rows: channel by channel
            for dev in bl.tp_group:
                gate = bl.placements["gate"][dev]
                assert bl.placements["down"][dev].col_perm == tuple(
                    c for ch in gate.channels
                    for j in gate.channel_groups(ch)
                    for c in range(j * LANE, (j + 1) * LANE))


def test_config_pickles_after_lowering():
    """The compiled operand rules cached on a config stay out of its
    pickle, as the sweep's worker processes need."""
    arch = ArchConfig(n_devices=2)
    plan = plan_pipeline(TOY, arch, TOY.max_context)
    compiler.block_summaries(TOY, plan, arch, 5)
    assert pickle.loads(pickle.dumps(arch)) == arch
